package core

import (
	"slices"
	"strings"
	"testing"

	"batchmaker/internal/cellgraph"
)

// miniEngine drives the Scheduler + Trackers through a deterministic
// execution loop with W workers, each owning a FIFO task queue. It executes
// one task per engine tick (round-robin over workers) and checks, at
// execution time, that every node's dependencies have actually completed —
// the dependency-safety invariant the FIFO-per-worker + pinning design must
// guarantee.
type miniEngine struct {
	t        *testing.T
	sched    *Scheduler
	trackers map[RequestID]*Tracker
	queues   [][]*Task
	nodeDone map[NodeRef]bool
	execLog  []*Task
	finished map[RequestID]bool
}

func newMiniEngine(t *testing.T, sched *Scheduler, workers int) *miniEngine {
	return &miniEngine{
		t:        t,
		sched:    sched,
		trackers: make(map[RequestID]*Tracker),
		queues:   make([][]*Task, workers),
		nodeDone: make(map[NodeRef]bool),
		finished: make(map[RequestID]bool),
	}
}

func (e *miniEngine) admit(req RequestID, g *cellgraph.Graph) {
	tr, err := NewTracker(req, g)
	if err != nil {
		e.t.Fatalf("NewTracker: %v", err)
	}
	e.trackers[req] = tr
	for _, spec := range tr.InitialSubgraphs() {
		if _, err := e.sched.AddSubgraph(spec); err != nil {
			e.t.Fatalf("AddSubgraph: %v", err)
		}
	}
}

// fill asks the scheduler for work on every idle worker.
func (e *miniEngine) fill() {
	for w := range e.queues {
		if len(e.queues[w]) == 0 {
			tasks := e.sched.Schedule(WorkerID(w))
			e.queues[w] = append(e.queues[w], tasks...)
		}
	}
}

// step executes the head task of one non-empty queue (lowest worker index)
// and returns false when every queue is empty.
func (e *miniEngine) step() bool {
	for w := range e.queues {
		if len(e.queues[w]) == 0 {
			continue
		}
		task := e.queues[w][0]
		e.queues[w] = e.queues[w][1:]
		e.exec(task)
		return true
	}
	return false
}

func (e *miniEngine) exec(task *Task) {
	// The scheduler reuses a task once TaskCompleted returns: log a copy.
	logged := *task
	logged.Nodes = slices.Clone(task.Nodes)
	e.execLog = append(e.execLog, &logged)
	for _, ref := range task.Nodes {
		tr := e.trackers[ref.Req]
		// Dependency-safety check at execution time.
		for _, d := range tr.Graph().Nodes[ref.Node].Deps() {
			if !e.nodeDone[NodeRef{Req: ref.Req, Node: d}] {
				e.t.Fatalf("task %d executes node %v before its dep %d completed", task.ID, ref, d)
			}
		}
		if e.nodeDone[ref] {
			e.t.Fatalf("node %v executed twice", ref)
		}
		e.nodeDone[ref] = true
		released, err := tr.NodeDone(ref.Node)
		if err != nil {
			e.t.Fatalf("NodeDone: %v", err)
		}
		for _, spec := range released {
			if _, err := e.sched.AddSubgraph(spec); err != nil {
				e.t.Fatalf("AddSubgraph (released): %v", err)
			}
		}
		if tr.Finished() {
			e.finished[ref.Req] = true
		}
	}
	if err := e.sched.TaskCompleted(task.ID); err != nil {
		e.t.Fatalf("TaskCompleted: %v", err)
	}
}

// runToCompletion loops fill+step until drained, failing on livelock.
func (e *miniEngine) runToCompletion() {
	for i := 0; ; i++ {
		e.fill()
		if !e.step() {
			break
		}
		if i > 1_000_000 {
			e.t.Fatal("engine did not drain")
		}
	}
	for req, tr := range e.trackers {
		if !tr.Finished() {
			e.t.Fatalf("request %d never finished (%d nodes remain)", req, tr.Remaining())
		}
	}
	if e.sched.TotalReady() != 0 || e.sched.InflightTasks() != 0 || e.sched.LiveSubgraphs() != 0 {
		e.t.Fatalf("scheduler not drained: ready=%d inflight=%d live=%d",
			e.sched.TotalReady(), e.sched.InflightTasks(), e.sched.LiveSubgraphs())
	}
}

func mustScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleChainExecutesSequentially(t *testing.T) {
	cell := newFakeCell("A")
	s := mustScheduler(t, Config{Types: []TypeConfig{{Key: "A", MaxBatch: 4}}})
	e := newMiniEngine(t, s, 1)
	e.admit(1, fakeChain(cell, 6))
	e.runToCompletion()
	// A lone chain can never batch: every task has exactly one node, in
	// sequence order.
	if len(e.execLog) != 6 {
		t.Fatalf("tasks = %d, want 6", len(e.execLog))
	}
	for i, task := range e.execLog {
		if task.BatchSize() != 1 || task.Nodes[0].Node != cellgraph.NodeID(i) {
			t.Fatalf("task %d = %+v", i, task.Nodes)
		}
	}
}

func TestTwoChainsBatchTogether(t *testing.T) {
	cell := newFakeCell("A")
	s := mustScheduler(t, Config{Types: []TypeConfig{{Key: "A", MaxBatch: 4}}})
	e := newMiniEngine(t, s, 1)
	e.admit(1, fakeChain(cell, 5))
	e.admit(2, fakeChain(cell, 5))
	e.runToCompletion()
	if len(e.execLog) != 5 {
		t.Fatalf("tasks = %d, want 5 (each step batches both requests)", len(e.execLog))
	}
	for i, task := range e.execLog {
		if task.BatchSize() != 2 {
			t.Fatalf("task %d batch = %d, want 2", i, task.BatchSize())
		}
	}
}

func TestNewRequestJoinsOngoingExecution(t *testing.T) {
	// The paper's Figure 5 scenario: req1-4 run; new requests join mid
	// flight; short requests leave early.
	cell := newFakeCell("A")
	s := mustScheduler(t, Config{
		Types:            []TypeConfig{{Key: "A", MaxBatch: 4}},
		MaxTasksToSubmit: 1, // one task per fill so joins are visible per step
	})
	e := newMiniEngine(t, s, 1)
	lens := []int{2, 3, 3, 5}
	for i, n := range lens {
		e.admit(RequestID(i+1), fakeChain(cell, n))
	}
	// Execute two steps: batch of 4 each.
	e.fill()
	e.step()
	e.fill()
	e.step()
	if !e.finished[1] {
		t.Fatal("req1 (len 2) must finish after 2 steps")
	}
	// req5 arrives and must join the very next task alongside req2-4.
	e.admit(5, fakeChain(cell, 5))
	e.fill()
	e.step()
	last := e.execLog[len(e.execLog)-1]
	if last.BatchSize() != 4 {
		t.Fatalf("third task batch = %d, want 4 (req2,3,4 join req5)", last.BatchSize())
	}
	found := false
	for _, ref := range last.Nodes {
		if ref.Req == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("newly arrived req5 did not join the ongoing batch")
	}
	e.runToCompletion()
}

func TestMaxBatchRespected(t *testing.T) {
	cell := newFakeCell("A")
	s := mustScheduler(t, Config{Types: []TypeConfig{{Key: "A", MaxBatch: 3}}})
	e := newMiniEngine(t, s, 1)
	for i := 0; i < 10; i++ {
		e.admit(RequestID(i+1), fakeChain(cell, 3))
	}
	e.runToCompletion()
	for _, task := range e.execLog {
		if task.BatchSize() > 3 {
			t.Fatalf("task over MaxBatch: %d", task.BatchSize())
		}
	}
}

func TestMaxTasksToSubmitBound(t *testing.T) {
	cell := newFakeCell("A")
	s := mustScheduler(t, Config{
		Types:            []TypeConfig{{Key: "A", MaxBatch: 8}},
		MaxTasksToSubmit: 3,
	})
	for i := 0; i < 4; i++ {
		tr, _ := NewTracker(RequestID(i+1), fakeChain(cell, 10))
		for _, spec := range tr.InitialSubgraphs() {
			if _, err := s.AddSubgraph(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	tasks := s.Schedule(0)
	if len(tasks) != 3 {
		t.Fatalf("Schedule returned %d tasks, want MaxTasksToSubmit=3", len(tasks))
	}
	// Each task is one step of all four chains.
	for i, task := range tasks {
		if task.BatchSize() != 4 {
			t.Fatalf("task %d batch = %d, want 4", i, task.BatchSize())
		}
	}
}

func TestPriorityPrefersLaterPhase(t *testing.T) {
	// Seq2Seq-shaped: encoder type A (priority 0), decoder type B
	// (priority 1). When both types have ready nodes under rule (c), B wins.
	a, b := newFakeCell("A"), newFakeCell("B")
	s := mustScheduler(t, Config{
		Types: []TypeConfig{
			{Key: "A", MaxBatch: 4, Priority: 0},
			{Key: "B", MaxBatch: 4, Priority: 1},
		},
		MaxTasksToSubmit: 1,
	})
	e := newMiniEngine(t, s, 1)
	// Request 1 finished encoding already (about to decode); request 2 just
	// arrived (about to encode).
	e.admit(1, fakeTwoPhase(a, b, 1, 3))
	e.fill()
	e.step() // executes req1's single encoder node; decoder subgraph releases
	e.admit(2, fakeChain(a, 3))
	// Both A (req2) and B (req1) now have 1 ready node. Neither has a full
	// batch nor a running task, so rule (b) applies to both; priority picks B.
	tasks := s.Schedule(0)
	if len(tasks) == 0 || tasks[0].TypeKey != "B" {
		t.Fatalf("expected decoder (B) scheduled first, got %+v", tasks)
	}
	for _, task := range tasks {
		e.queues[0] = append(e.queues[0], task)
	}
	e.runToCompletion()
}

func TestFullBatchRuleBeatsPriority(t *testing.T) {
	// Rule (a) applies before priority across rules: a type with a full
	// batch of ready nodes is preferred over a higher-priority type with
	// only a partial batch... priority only breaks ties *within* a rule.
	a, b := newFakeCell("A"), newFakeCell("B")
	s := mustScheduler(t, Config{
		Types: []TypeConfig{
			{Key: "A", MaxBatch: 2, Priority: 0},
			{Key: "B", MaxBatch: 4, Priority: 9},
		},
		MaxTasksToSubmit: 1,
	})
	e := newMiniEngine(t, s, 1)
	e.admit(1, fakeTwoPhase(a, b, 1, 3))
	e.fill()
	e.step() // finish req1 encoder; B has one ready node
	e.admit(2, fakeChain(a, 3))
	e.admit(3, fakeChain(a, 3))
	// A now has 2 ready nodes == its MaxBatch → rule (a) selects {A}; B has
	// only 1 ready (< 4), so B is not in the rule-(a) set despite priority.
	tasks := s.Schedule(0)
	if len(tasks) == 0 || tasks[0].TypeKey != "A" {
		t.Fatalf("expected full-batch type A first, got %+v", tasks)
	}
	for _, task := range tasks {
		e.queues[0] = append(e.queues[0], task)
	}
	e.runToCompletion()
}

func TestTreeSchedulingLevels(t *testing.T) {
	leaf, internal := newFakeCell("L"), newFakeInternalCell("I")
	s := mustScheduler(t, Config{
		Types: []TypeConfig{
			{Key: "L", MaxBatch: 64, Priority: 0},
			{Key: "I", MaxBatch: 64, Priority: 1},
		},
	})
	e := newMiniEngine(t, s, 1)
	e.admit(1, fakeTree(leaf, internal, 8))
	e.admit(2, fakeTree(leaf, internal, 8))
	e.runToCompletion()
	// 8+8 leaves in 1 task; internal levels: 4+4, 2+2, 1+1 → with batching
	// across requests: leaves(16), then internal tasks by level: 8, 4, 2.
	if len(e.execLog) != 4 {
		t.Fatalf("tasks = %d, want 4", len(e.execLog))
	}
	wantSizes := []int{16, 8, 4, 2}
	for i, task := range e.execLog {
		if task.BatchSize() != wantSizes[i] {
			t.Fatalf("task %d size = %d, want %d", i, task.BatchSize(), wantSizes[i])
		}
	}
	if e.execLog[0].TypeKey != "L" {
		t.Fatal("leaves must execute first")
	}
}

func TestMultiWorkerPinningKeepsSubgraphOnOneGPU(t *testing.T) {
	cell := newFakeCell("A")
	s := mustScheduler(t, Config{
		Types:            []TypeConfig{{Key: "A", MaxBatch: 2}},
		MaxTasksToSubmit: 2,
	})
	e := newMiniEngine(t, s, 2)
	e.admit(1, fakeChain(cell, 8))
	e.admit(2, fakeChain(cell, 8))

	// Worker 0 grabs tasks first; both chains pin to worker 0.
	e.fill()
	if len(e.queues[0]) == 0 {
		t.Fatal("worker 0 got no tasks")
	}
	// While pinned, worker 1 must get nothing.
	if tasks := s.Schedule(1); len(tasks) != 0 {
		t.Fatalf("worker 1 stole pinned work: %+v", tasks)
	}
	e.runToCompletion()
	// Dependency safety was asserted inside exec; also confirm every task
	// ran on worker 0 (the pin held while tasks were continuously in
	// flight) or, if unpinned gaps occurred, that per-request order held.
	seen := make(map[RequestID]cellgraph.NodeID)
	for _, task := range e.execLog {
		for _, ref := range task.Nodes {
			if last, ok := seen[ref.Req]; ok && ref.Node != last+1 {
				t.Fatalf("request %d executed out of order: %d after %d", ref.Req, ref.Node, last)
			}
			seen[ref.Req] = ref.Node
		}
	}
}

func TestMinBatchSuppressesTinyFollowupTasks(t *testing.T) {
	cell := newFakeCell("A")
	s := mustScheduler(t, Config{
		Types:            []TypeConfig{{Key: "A", MaxBatch: 8, MinBatch: 4}},
		MaxTasksToSubmit: 5,
	})
	// Two chains → each follow-up task would have 2 nodes < MinBatch, so
	// only the first task of the round is submitted.
	for i := 0; i < 2; i++ {
		tr, _ := NewTracker(RequestID(i+1), fakeChain(cell, 5))
		for _, spec := range tr.InitialSubgraphs() {
			if _, err := s.AddSubgraph(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	tasks := s.Schedule(0)
	if len(tasks) != 1 {
		t.Fatalf("tasks = %d, want 1 (follow-ups under MinBatch)", len(tasks))
	}
	if tasks[0].BatchSize() != 2 {
		t.Fatalf("first task batch = %d, want 2", tasks[0].BatchSize())
	}
}

func TestSchedulerErrorPaths(t *testing.T) {
	if _, err := NewScheduler(Config{}); err == nil {
		t.Fatal("want no-types error")
	}
	if _, err := NewScheduler(Config{Types: []TypeConfig{{Key: "", MaxBatch: 1}}}); err == nil {
		t.Fatal("want empty-key error")
	}
	if _, err := NewScheduler(Config{Types: []TypeConfig{{Key: "A", MaxBatch: 0}}}); err == nil {
		t.Fatal("want MaxBatch error")
	}
	if _, err := NewScheduler(Config{Types: []TypeConfig{{Key: "A", MaxBatch: 2, MinBatch: 4}}}); err == nil {
		t.Fatal("want MinBatch>MaxBatch error")
	}
	if _, err := NewScheduler(Config{Types: []TypeConfig{{Key: "A", MaxBatch: 2}, {Key: "A", MaxBatch: 2}}}); err == nil {
		t.Fatal("want duplicate-type error")
	}
	s := mustScheduler(t, Config{Types: []TypeConfig{{Key: "A", MaxBatch: 2}}})
	if _, err := s.AddSubgraph(SubgraphSpec{Req: 1, TypeKey: "Z", Nodes: []cellgraph.NodeID{0}}); err == nil {
		t.Fatal("want unknown-type error")
	}
	if _, err := s.AddSubgraph(SubgraphSpec{Req: 1, TypeKey: "A"}); err == nil {
		t.Fatal("want empty-subgraph error")
	}
	if err := s.TaskCompleted(999); err == nil {
		t.Fatal("want unknown-task error")
	}
	for _, tc := range []struct {
		want string
		spec SubgraphSpec
	}{
		// A dep entry for a position the subgraph does not have.
		{"outside the 1-node subgraph", SubgraphSpec{Nodes: []cellgraph.NodeID{1}, Deps: [][]int32{nil, {0}}}},
		// A dep naming a position the subgraph does not have (what listing
		// an external dependency as internal amounts to).
		{"lists dep position 1 outside", SubgraphSpec{Nodes: []cellgraph.NodeID{1}, Deps: [][]int32{{1}}}},
		{"lists dep position -1 outside", SubgraphSpec{Nodes: []cellgraph.NodeID{1, 2}, Deps: [][]int32{nil, {-1}}}},
		// All nodes blocked internally.
		{"no initially ready node", SubgraphSpec{Nodes: []cellgraph.NodeID{0, 1}, Deps: [][]int32{{1}, {0}}}},
		{"no initially ready node", SubgraphSpec{Nodes: []cellgraph.NodeID{4}, Deps: [][]int32{{0}}}},
		// Batching order is the order of Nodes, so it must be ID order.
		{"ascending order", SubgraphSpec{Nodes: []cellgraph.NodeID{2, 1}}},
		{"ascending order", SubgraphSpec{Nodes: []cellgraph.NodeID{1, 1}}},
	} {
		tc.spec.Req, tc.spec.TypeKey = 1, "A"
		if _, err := s.AddSubgraph(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("spec %+v: want error containing %q, got %v", tc.spec, tc.want, err)
		}
	}
	if s.LiveSubgraphs() != 0 || s.TotalReady() != 0 || s.RequestSubgraphs(1) != 0 {
		t.Fatal("a rejected spec left scheduler state behind")
	}
}

func TestScheduleOnEmptySchedulerReturnsNil(t *testing.T) {
	s := mustScheduler(t, Config{Types: []TypeConfig{{Key: "A", MaxBatch: 2}}})
	if tasks := s.Schedule(0); tasks != nil {
		t.Fatalf("want nil, got %+v", tasks)
	}
}

func TestManyRequestsManyWorkersConservation(t *testing.T) {
	// Stress: 60 mixed requests over 3 workers; the engine asserts
	// dependency safety, exactly-once execution and full drain.
	a, b := newFakeCell("A"), newFakeCell("B")
	leaf, internal := newFakeCell("L"), newFakeInternalCell("I")
	s := mustScheduler(t, Config{
		Types: []TypeConfig{
			{Key: "A", MaxBatch: 16, Priority: 0},
			{Key: "B", MaxBatch: 8, Priority: 1},
			{Key: "L", MaxBatch: 16, Priority: 0},
			{Key: "I", MaxBatch: 16, Priority: 1},
		},
	})
	e := newMiniEngine(t, s, 3)
	id := RequestID(1)
	for i := 0; i < 20; i++ {
		e.admit(id, fakeChain(a, 1+i%7))
		id++
		e.admit(id, fakeTwoPhase(a, b, 1+i%5, 1+i%4))
		id++
		e.admit(id, fakeTree(leaf, internal, []int{2, 4, 8}[i%3]))
		id++
	}
	e.runToCompletion()
	// Exactly-once totals.
	total := 0
	for _, task := range e.execLog {
		total += task.BatchSize()
	}
	want := 0
	for _, tr := range e.trackers {
		want += tr.Graph().NumCells()
	}
	if total != want {
		t.Fatalf("executed %d nodes, want %d", total, want)
	}
}

// TestTaskRecycledAfterCompletion: TaskCompleted clears the task it retires,
// so a late read finds no rows and no worker, and the next Schedule hands the
// same record out again.
func TestTaskRecycledAfterCompletion(t *testing.T) {
	s := mustScheduler(t, Config{Types: []TypeConfig{{Key: "A", MaxBatch: 4}}, MaxTasksToSubmit: 1})
	e := newMiniEngine(t, s, 1)
	e.admit(1, fakeChain(newFakeCell("A"), 3))
	var first *Task
	for n := 0; n < 3; n++ {
		tasks := s.Schedule(0)
		if len(tasks) != 1 || tasks[0].BatchSize() != 1 || tasks[0].Nodes[0].Node != cellgraph.NodeID(n) {
			t.Fatalf("step %d: tasks %+v", n, tasks)
		}
		task := tasks[0]
		if first == nil {
			first = task
		} else if task != first {
			t.Fatalf("step %d: retired task record not reused", n)
		}
		e.exec(task)
		if task.Nodes != nil || task.Worker != NoWorker || task.ID != 0 {
			t.Fatalf("step %d: retired task not cleared: %+v", n, task)
		}
	}
	if !e.finished[1] || s.LiveSubgraphs() != 0 || s.InflightTasks() != 0 {
		t.Fatal("chain did not drain")
	}
}

package core

import (
	"testing"

	"batchmaker/internal/cellgraph"
)

// chainSpec builds an n-node chain subgraph (node i depends on i-1) for one
// request, mirroring what Tracker produces for an unfolded LSTM chain.
func chainSpec(req RequestID, typeKey string, n int) SubgraphSpec {
	nodes := make([]cellgraph.NodeID, n)
	deps := make([][]int32, n)
	for i := range nodes {
		nodes[i] = cellgraph.NodeID(i)
		if i > 0 {
			deps[i] = []int32{int32(i - 1)}
		}
	}
	return SubgraphSpec{Req: req, TypeKey: typeKey, Nodes: nodes, Deps: deps}
}

func cancelTestScheduler(t *testing.T, maxBatch int) *Scheduler {
	t.Helper()
	s, err := NewScheduler(Config{Types: []TypeConfig{{Key: "lstm", MaxBatch: maxBatch}}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCancelRequestPurgesQueuedNodes(t *testing.T) {
	s := cancelTestScheduler(t, 8)
	if _, err := s.AddSubgraph(chainSpec(1, "lstm", 5)); err != nil {
		t.Fatal(err)
	}
	if purged := s.CancelRequest(1); purged != 5 {
		t.Fatalf("purged = %d, want 5", purged)
	}
	if s.TotalReady() != 0 || s.ReadyNodes(0) != 0 {
		t.Fatalf("ready counters not cleared: total=%d type=%d", s.TotalReady(), s.ReadyNodes(0))
	}
	if s.LiveSubgraphs() != 0 || s.RequestSubgraphs(1) != 0 {
		t.Fatalf("subgraphs remain after cancel: live=%d byReq=%d", s.LiveSubgraphs(), s.RequestSubgraphs(1))
	}
	if tasks := s.Schedule(0); tasks != nil {
		t.Fatalf("Schedule returned tasks for a cancelled request: %v", tasks)
	}
}

func TestCancelRequestUnknownIsNoop(t *testing.T) {
	s := cancelTestScheduler(t, 8)
	if purged := s.CancelRequest(99); purged != 0 {
		t.Fatalf("purged = %d, want 0", purged)
	}
}

func TestCancelRequestLeavesInflightTasksToCompletion(t *testing.T) {
	s := cancelTestScheduler(t, 2)
	if _, err := s.AddSubgraph(chainSpec(1, "lstm", 6)); err != nil {
		t.Fatal(err)
	}
	// A chain releases one ready node at a time, so the first round issues
	// MaxTasksToSubmit single-node tasks.
	tasks := s.Schedule(0)
	if len(tasks) == 0 {
		t.Fatal("no tasks scheduled")
	}
	issued := 0
	for _, task := range tasks {
		issued += task.BatchSize()
	}
	purged := s.CancelRequest(1)
	if purged != 6-issued {
		t.Fatalf("purged = %d, want %d (6 nodes - %d issued)", purged, 6-issued, issued)
	}
	if s.TotalReady() != 0 {
		t.Fatalf("ready nodes remain after cancel: %d", s.TotalReady())
	}
	// The in-flight tasks still complete through the normal path, after
	// which the subgraph retires and the scheduler is empty.
	if s.InflightTasks() != len(tasks) {
		t.Fatalf("inflight = %d, want %d", s.InflightTasks(), len(tasks))
	}
	for _, task := range tasks {
		if err := s.TaskCompleted(task.ID); err != nil {
			t.Fatal(err)
		}
	}
	if s.LiveSubgraphs() != 0 || s.InflightTasks() != 0 {
		t.Fatalf("scheduler not clean after completion: live=%d inflight=%d", s.LiveSubgraphs(), s.InflightTasks())
	}
	if tasks := s.Schedule(0); tasks != nil {
		t.Fatalf("cancelled request scheduled again: %v", tasks)
	}
}

func TestCancelRequestDoesNotDisturbOtherRequests(t *testing.T) {
	s := cancelTestScheduler(t, 4)
	if _, err := s.AddSubgraph(chainSpec(1, "lstm", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSubgraph(chainSpec(2, "lstm", 3)); err != nil {
		t.Fatal(err)
	}
	s.CancelRequest(1)
	if s.RequestSubgraphs(2) != 1 {
		t.Fatalf("request 2 lost its subgraph: %d", s.RequestSubgraphs(2))
	}
	// Drive request 2 to completion; every scheduled node must belong to it.
	executed := 0
	for i := 0; i < 100 && executed < 3; i++ {
		for _, task := range s.Schedule(0) {
			for _, ref := range task.Nodes {
				if ref.Req != 2 {
					t.Fatalf("scheduled node of cancelled request: %v", ref)
				}
				executed++
			}
			if err := s.TaskCompleted(task.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if executed != 3 {
		t.Fatalf("request 2 executed %d of 3 nodes", executed)
	}
	if s.LiveSubgraphs() != 0 || s.TotalReady() != 0 {
		t.Fatalf("scheduler not clean: live=%d ready=%d", s.LiveSubgraphs(), s.TotalReady())
	}
}

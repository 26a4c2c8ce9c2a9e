package core

import "batchmaker/internal/cellgraph"

// DirtyFreeLists fills s's free lists with n retired tasks, subgraph records
// and byReq lists whose every field and array holds garbage, as records
// retired after arbitrary earlier use would. A scheduler that re-initializes
// what it reuses schedules exactly as a fresh one does.
func DirtyFreeLists(s *Scheduler, n int) {
	junk := func(k int) []int32 {
		buf := make([]int32, k, 2*k)
		for i := range buf {
			buf[i] = int32(7*i + 3)
		}
		return buf
	}
	bogus := &subgraph{id: -1, req: -1, typ: 7, unissued: 99, inflight: 99}
	for i := 0; i < n; i++ {
		nodes := make([]NodeRef, 5, 9)
		for j := range nodes {
			nodes[j] = NodeRef{Req: RequestID(1000 + j), Node: cellgraph.NodeID(j)}
		}
		s.freeTasks = append(s.freeTasks, &Task{
			ID: TaskID(-i), Type: 7, TypeKey: "bogus", Worker: 3, Nodes: nodes,
			Device: 2, HomeDevice: 1, Remote: true, Migrations: 4,
			MigratedFrom: []DeviceID{1, 2}, DispatchedAt: 42, QueueDepth: 6,
			subgraphs: []*subgraph{bogus, bogus}, nodesBuf: nodes[2:],
		})
		dep := junk(12)
		s.freeSubs = append(s.freeSubs, &subgraph{
			id: SubgraphID(-i), req: -1, typ: 7,
			nodes: []cellgraph.NodeID{9, 8}, ready: junk(3),
			pendingDeps: dep[:3], depStart: dep[3:7], dependents: dep[7:], depBuf: dep,
			unissued: 5, inflight: 2, pinned: 1, deadline: 77, pendingTake: 3,
		})
		s.freeLists = append(s.freeLists, []*subgraph{bogus}[:0])
	}
}

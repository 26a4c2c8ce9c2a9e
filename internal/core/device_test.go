package core

import (
	"math/rand"
	"sort"
	"testing"
)

// A type's id is its position in Config.Types: the tests below configure
// "enc" then "dec", and "a" then "b".
const (
	encType, decType TypeID = 0, 1
	aType            TypeID = 0
)

func deviceScheduler(t *testing.T, devices int, types ...TypeConfig) *Scheduler {
	t.Helper()
	s, err := NewScheduler(Config{Types: types, Devices: devices})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPinAssignmentCoversAllDevices(t *testing.T) {
	// Heaviest types spread first; with one type and four devices the type
	// is replicated so no device idles.
	s := deviceScheduler(t, 4, TypeConfig{Key: "lstm", MaxBatch: 8})
	pins := s.TypeDevices(0)
	if len(pins) != 4 {
		t.Fatalf("single type on 4 devices should replicate everywhere, pins=%v", pins)
	}

	// Two types, two devices: LPT puts the heavier one alone on a device.
	s = deviceScheduler(t, 2,
		TypeConfig{Key: "enc", MaxBatch: 8, Weight: 3},
		TypeConfig{Key: "dec", MaxBatch: 8, Weight: 1},
	)
	enc, dec := s.TypeDevices(encType), s.TypeDevices(decType)
	if len(enc) != 1 || len(dec) != 1 || enc[0] == dec[0] {
		t.Fatalf("LPT should separate the types: enc=%v dec=%v", enc, dec)
	}
}

func TestSchedulePrefersLocalDevice(t *testing.T) {
	s := deviceScheduler(t, 2,
		TypeConfig{Key: "enc", MaxBatch: 8, Weight: 3},
		TypeConfig{Key: "dec", MaxBatch: 8, Weight: 1},
	)
	if err := s.BindWorker(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.BindWorker(1, 1); err != nil {
		t.Fatal(err)
	}
	encDev := s.TypeDevices(encType)[0]
	decDev := s.TypeDevices(decType)[0]

	if _, err := s.AddSubgraph(chainSpec(1, "enc", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSubgraph(chainSpec(2, "dec", 4)); err != nil {
		t.Fatal(err)
	}
	// The worker on each device should pick the type resident there, not
	// the higher-priority or alphabetical one.
	for w := WorkerID(0); w < 2; w++ {
		tasks := s.Schedule(w)
		if len(tasks) == 0 {
			t.Fatalf("worker %d got no tasks", w)
		}
		wantKey := "enc"
		if s.DeviceOf(w) == decDev {
			wantKey = "dec"
		}
		for _, task := range tasks {
			if task.TypeKey != wantKey {
				t.Fatalf("worker %d on dev %d got %q, want local %q", w, s.DeviceOf(w), task.TypeKey, wantKey)
			}
			if task.Remote {
				t.Fatalf("local dispatch marked remote: %+v", task)
			}
			if task.Device != s.DeviceOf(w) || task.HomeDevice != task.Device {
				t.Fatalf("task device fields wrong: dev=%d home=%d worker dev=%d", task.Device, task.HomeDevice, s.DeviceOf(w))
			}
		}
	}
	_ = encDev
}

func TestScheduleStealsRemoteWorkWhenIdle(t *testing.T) {
	s := deviceScheduler(t, 2,
		TypeConfig{Key: "enc", MaxBatch: 8, Weight: 3},
		TypeConfig{Key: "dec", MaxBatch: 8, Weight: 1},
	)
	if err := s.BindWorker(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.BindWorker(1, 1); err != nil {
		t.Fatal(err)
	}
	encDev := s.TypeDevices(encType)[0]
	// Only enc work exists; the worker on the other device must steal it
	// and the task must carry the remote marker and home device.
	if _, err := s.AddSubgraph(chainSpec(1, "enc", 4)); err != nil {
		t.Fatal(err)
	}
	var remoteWorker WorkerID
	for w := WorkerID(0); w < 2; w++ {
		if s.DeviceOf(w) != encDev {
			remoteWorker = w
		}
	}
	tasks := s.Schedule(remoteWorker)
	if len(tasks) == 0 {
		t.Fatal("remote worker found no work to steal")
	}
	for _, task := range tasks {
		if !task.Remote {
			t.Fatalf("stolen task not marked remote: %+v", task)
		}
		if task.HomeDevice != encDev {
			t.Fatalf("stolen task home=%d, want %d", task.HomeDevice, encDev)
		}
	}
	if s.RemoteTasks() != len(tasks) {
		t.Fatalf("RemoteTasks=%d, want %d", s.RemoteTasks(), len(tasks))
	}
}

func TestMigrationTrackedAcrossDevices(t *testing.T) {
	s := deviceScheduler(t, 2, TypeConfig{Key: "lstm", MaxBatch: 4})
	if err := s.BindWorker(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.BindWorker(1, 1); err != nil {
		t.Fatal(err)
	}
	// lstm is replicated on both devices (single type), so both workers
	// schedule it locally. A request hopping devices between tasks must be
	// counted as a migration.
	if _, err := s.AddSubgraph(chainSpec(1, "lstm", 6)); err != nil {
		t.Fatal(err)
	}
	t1 := s.Schedule(0)
	if len(t1) == 0 {
		t.Fatal("no initial task")
	}
	for _, task := range t1 {
		if task.Migrations != 0 {
			t.Fatalf("first task reports migrations: %+v", task)
		}
		if err := s.TaskCompleted(task.ID); err != nil {
			t.Fatal(err)
		}
	}
	t2 := s.Schedule(1)
	if len(t2) == 0 {
		t.Fatal("no follow-up task on device 1")
	}
	if t2[0].Migrations != 1 || len(t2[0].MigratedFrom) != 1 || t2[0].MigratedFrom[0] != 0 {
		t.Fatalf("migration not tracked: %+v", t2[0])
	}
	if s.MigratedRequests() != 1 {
		t.Fatalf("MigratedRequests=%d, want 1", s.MigratedRequests())
	}
}

func TestMaybeRebalanceMovesPinUnderSkew(t *testing.T) {
	s := deviceScheduler(t, 2,
		TypeConfig{Key: "a", MaxBatch: 8, Weight: 2},
		TypeConfig{Key: "b", MaxBatch: 8, Weight: 1},
	)
	aDev := s.TypeDevices(aType)[0]
	// Pile ready work on a's device only; b's device is empty, so the skew
	// check fires and a is replicated onto the idle device.
	for r := RequestID(1); r <= 8; r++ {
		if _, err := s.AddSubgraph(chainSpec(r, "a", 8)); err != nil {
			t.Fatal(err)
		}
	}
	if moved := s.MaybeRebalance(); moved != 1 {
		t.Fatalf("MaybeRebalance=%d, want 1", moved)
	}
	pins := s.TypeDevices(aType)
	if len(pins) != 2 {
		t.Fatalf("expected replication of %q, pins=%v", "a", pins)
	}
	if s.PinMoves() != 1 {
		t.Fatalf("PinMoves=%d, want 1", s.PinMoves())
	}
	// Balanced cluster: no further moves.
	if moved := s.MaybeRebalance(); moved != 0 {
		t.Fatalf("second MaybeRebalance=%d, want 0", moved)
	}
	_ = aDev
}

func TestSingleDeviceSchedulingUnchanged(t *testing.T) {
	// A 1-device scheduler must behave exactly like the device-free
	// algorithm: no remote tasks, no migrations, device fields all zero.
	s := deviceScheduler(t, 1, TypeConfig{Key: "lstm", MaxBatch: 4})
	if _, err := s.AddSubgraph(chainSpec(1, "lstm", 8)); err != nil {
		t.Fatal(err)
	}
	for {
		tasks := s.Schedule(0)
		if len(tasks) == 0 {
			break
		}
		for _, task := range tasks {
			if task.Remote || task.Migrations != 0 || task.Device != 0 || task.MigratedFrom != nil {
				t.Fatalf("single-device task carries device artifacts: %+v", task)
			}
			if err := s.TaskCompleted(task.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.RemoteTasks() != 0 || s.MigratedRequests() != 0 || s.PinMoves() != 0 {
		t.Fatalf("single-device counters moved: remote=%d migrated=%d pins=%d",
			s.RemoteTasks(), s.MigratedRequests(), s.PinMoves())
	}
}

func TestBindWorkerRejectsOutOfRange(t *testing.T) {
	s := deviceScheduler(t, 2, TypeConfig{Key: "lstm", MaxBatch: 4})
	if err := s.BindWorker(0, 2); err == nil {
		t.Fatal("BindWorker accepted device 2 on a 2-device scheduler")
	}
	if err := s.BindWorker(0, -1); err == nil {
		t.Fatal("BindWorker accepted device -1")
	}
}

// TestPropMergeReadyOrderedDuplicateFree is the mergeReady property test:
// any split of a sorted duplicate-free ID set into a "rest" suffix and a
// shuffled "fresh" batch must merge back to the original sorted set.
func TestPropMergeReadyOrderedDuplicateFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(40)
		ids := make([]int32, 0, n)
		next := 0
		for len(ids) < n {
			next += 1 + rng.Intn(3)
			ids = append(ids, int32(next))
		}
		// Random subset becomes fresh (shuffled); the rest keeps order.
		var rest, fresh []int32
		for _, id := range ids {
			if rng.Intn(2) == 0 {
				fresh = append(fresh, id)
			} else {
				rest = append(rest, id)
			}
		}
		rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		// The ready list still starts with the members just taken.
		take := rng.Intn(4)
		ready := append(make([]int32, take), rest...)

		got := mergeReady(ready, take, fresh)
		if len(got) != len(ids) {
			t.Fatalf("iter %d: merged %d ids, want %d", iter, len(got), len(ids))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("iter %d: merge not sorted: %v", iter, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("iter %d: duplicate %d in merge: %v", iter, got[i], got)
			}
		}
		for i, id := range ids {
			if got[i] != id {
				t.Fatalf("iter %d: merge[%d]=%d, want %d", iter, i, got[i], id)
			}
		}
	}
}

package server

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"batchmaker/internal/cellgraph"
)

// TestConfigRejectsValuesSpanRecordsCannotHold covers the truncation bug:
// obsv.Record stamps the worker index into a byte and the batch size into 16
// bits, so New must refuse a configuration one past each bound (naming the
// field) and accept the value just inside it.
func TestConfigRejectsValuesSpanRecordsCannotHold(t *testing.T) {
	for _, tc := range []struct {
		name  string
		set   func(*Config)
		field string // "" means New must accept
	}{
		{"workers-256", func(c *Config) { c.Workers = 256 }, ""},
		{"workers-257", func(c *Config) { c.Workers = 257 }, "Workers"},
		{"maxbatch-65535", func(c *Config) { c.Cells[0].MaxBatch = 65535 }, ""},
		{"maxbatch-65536", func(c *Config) { c.Cells[0].MaxBatch = 65536 }, "MaxBatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := newTestModel().serverConfig(1)
			cfg.Obs.Disabled = true // no span rings: 256 workers stay cheap
			tc.set(&cfg)
			srv, err := New(cfg)
			if err == nil {
				srv.Stop()
			}
			switch {
			case tc.field == "" && err != nil:
				t.Fatalf("value inside the bound rejected: %v", err)
			case tc.field != "" && err == nil:
				t.Fatalf("New accepted a %s span records would truncate", tc.field)
			case tc.field != "" && !strings.Contains(err.Error(), tc.field):
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}

// TestStatsViewConsistentUnderLoad polls the three readers of the metric
// cells — Stats, Health and a /metrics exposition — from two goroutines
// while four workers serve a mixed workload with cancellations. Under -race
// this is the data-race check for the lock-free view; in any mode every
// counter must be monotone between one poller's consecutive reads, and once
// the pipeline has drained the per-worker breakdown must tile the total
// exactly.
func TestStatsViewConsistentUnderLoad(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(4))
	if err != nil {
		t.Fatal(err)
	}

	counters := func(st Stats) []int {
		o := st.Outcomes
		c := []int{st.TasksRun, st.CellsRun, st.DispatchRounds,
			o.Admitted, o.Completed, o.Failed, o.Rejected, o.Expired, o.Cancelled, o.Retries, o.RecoveredPanics}
		for _, w := range st.Workers {
			c = append(c, w.TasksRun)
		}
		return c
	}
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			prev := counters(srv.Stats())
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := counters(srv.Stats())
				for i := range cur {
					if cur[i] < prev[i] {
						t.Errorf("counter %d went backwards: %d -> %d", i, prev[i], cur[i])
						return
					}
				}
				prev = cur
				if h := srv.Health(); h.LiveRequests < 0 || h.QueuedCells < 0 {
					t.Errorf("negative backlog in health: %+v", h)
					return
				}
				if err := srv.Metrics().Registry().WritePromTo(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	var clients sync.WaitGroup
	for c := 0; c < 12; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; i < 6; i++ {
				var g *cellgraph.Graph
				var err error
				switch (c + i) % 3 {
				case 0:
					g, err = cellgraph.UnfoldChain(m.lstm, chainInput(uint64(c*10+i), 2+i))
				case 1:
					g, err = cellgraph.UnfoldSeq2Seq(m.enc, m.dec, []int{3, 4, 5 + c}, 1+i%3)
				default:
					tree, terr := cellgraph.CompleteBinaryTree(4, tVocab)
					if terr != nil {
						t.Error(terr)
						return
					}
					g, err = cellgraph.UnfoldTree(m.leaf, m.internal, tree)
				}
				if err != nil {
					t.Error(err)
					return
				}
				h, err := srv.SubmitAsync(g)
				if err != nil {
					t.Error(err)
					return
				}
				if i%4 == 3 {
					h.Cancel()
				}
				<-h.Done()
			}
		}(c)
	}
	clients.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	pollers.Wait()

	st := srv.Stats()
	workerTasks := 0
	for _, w := range st.Workers {
		workerTasks += w.TasksRun
	}
	if st.TasksRun == 0 || workerTasks != st.TasksRun {
		t.Fatalf("per-worker breakdown does not tile the total: tasks=%d workers=%d", st.TasksRun, workerTasks)
	}
	hist := 0
	for _, n := range st.BatchSizes {
		hist += n
	}
	if hist != st.TasksRun {
		t.Fatalf("occupancy histogram holds %d tasks, counters say %d", hist, st.TasksRun)
	}
	if o := st.Outcomes; o.Admitted != 72 || o.Pending() != 0 || st.LiveRequests != 0 || st.QueuedCells != 0 {
		t.Fatalf("lifecycle view after drain: %s live=%d queued=%d", o, st.LiveRequests, st.QueuedCells)
	}
}

// Command abpair compares a git ref of this repository with a checkout of
// it on the repository benchmark, in alternated pairs of runs.
//
//	go run ./cmd/abpair -base HEAD~1 [-pairs 10] [-workloads seq2seq_open,tree_tiny]
//
// The parent side is the ref given by -base, checked out into a git
// worktree at .abpair/parent (removed at exit; one a killed run left behind
// is replaced); the change side is the checkout -dir names (default: the
// current one). Each side is built once through its own benchmark/run.sh,
// and the two prebuilt harness binaries then alternate: pair i runs both
// sides on seed -seed+i for BENCHMARK.json's run_seconds, the parent first
// in even pairs and the change first in odd ones, each run exactly what
// run.sh execs. Timing a freshly built side would charge it the build's
// aftermath.
//
// For each workload and metric it prints each side's median and quartiles,
// the pairs the change won in the metric's better direction (BENCHMARK.json)
// with the sign test's p-value, the parent's quartile distance, whether a
// gain may be claimed (at least nine tenths of the pairs won and a median
// gap wider than that distance), and, for the end-to-end metrics, whether
// the change is worse than the parent by more than the metric's bound. A run that is not correct or has
// failed requests stops the comparison.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// contract is what abpair reads of BENCHMARK.json.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the last line of one benchmark run.
type runResult struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		base      = flag.String("base", "", "git ref of the parent side, checked out into a worktree")
		dir       = flag.String("dir", ".", "checkout of the change side")
		pairs     = flag.Int("pairs", 10, "alternated pairs of runs per workload")
		workloads = flag.String("workloads", "", "comma-separated workloads (default: every one in BENCHMARK.json)")
		seed      = flag.Int("seed", 1, "seed of pair 0; pair i uses seed+i on both sides")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, 1: the traced pass's per-layer metrics")
	)
	flag.Parse()
	if *base == "" {
		return errors.New("-base is required")
	}
	if *pairs < 2 {
		return errors.New("-pairs must be at least 2")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	change, err := filepath.Abs(*dir)
	if err != nil {
		return err
	}
	var c contract
	if raw, err := os.ReadFile(filepath.Join(change, "BENCHMARK.json")); err != nil {
		return err
	} else if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := strings.Split(*workloads, ",")
	if *workloads == "" {
		names = names[:0]
		for _, w := range c.Workloads {
			names = append(names, w.Name)
		}
	}
	metrics := c.EndToEnd
	if *trace == 1 {
		metrics = c.PerLayer
	}

	parent, err := addWorktree(ctx, change, *base)
	if err != nil {
		return err
	}
	defer removeWorktree(change, parent)
	for _, tree := range []string{parent, change} {
		if err := build(ctx, tree); err != nil {
			return err
		}
	}

	fmt.Printf("parent %s\nchange %s\n%d pairs per workload, %d s runs, --trace %d, seeds %d..%d\n",
		parent, change, *pairs, c.RunSeconds, *trace, *seed, *seed+*pairs-1)
	for _, w := range names {
		runs := [2][]runResult{} // parent, change
		for i := range *pairs {
			s := *seed + i
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				tree := []string{parent, change}[side]
				r, err := runOnce(ctx, tree, w, s, c.RunSeconds, *trace)
				if err != nil {
					return err
				}
				runs[side] = append(runs[side], r)
			}
			fmt.Printf("%s pair %d (seed %d, %s first):\n", w, i, s, []string{"parent", "change"}[order[0]])
			for _, m := range metrics {
				fmt.Printf("  %-28s parent %-12s change %s\n", m.Name,
					fmtValue(runs[0][i].Metrics[m.Name].Value), fmtValue(runs[1][i].Metrics[m.Name].Value))
			}
		}
		report(w, metrics, runs)
	}
	return nil
}

// report prints the verdict of every metric of one workload.
func report(workload string, metrics []metricSpec, runs [2][]runResult) {
	fmt.Printf("\n%s: parent and change median [q1, q3]; gain in the better direction; pairs won; sign-test p; parent q3-q1\n", workload)
	for _, m := range metrics {
		var sides [2][]float64
		for side := range sides {
			for _, r := range runs[side] {
				sides[side] = append(sides[side], r.Metrics[m.Name].Value)
			}
		}
		v := compare(sides[0], sides[1], m.Better, m.Bound)
		var notes []string
		if v.Claim {
			notes = append(notes, "claim holds")
		}
		if v.Worse {
			notes = append(notes, fmt.Sprintf("WORSE than the %.0f %% bound", 100*m.Bound))
		}
		if v.Unresolved {
			notes = append(notes, fmt.Sprintf("unresolved: parent spread past the %.0f %% bound", 100*m.Bound))
		}
		fmt.Printf("  %-28s %s  %s  %+6.1f %%  %2d/%d  p %.3f  %5.1f %%  %s\n", m.Name,
			fmtSummary(v.Parent), fmtSummary(v.Change), 100*v.Gain, v.Wins, v.Pairs, v.SignP, 100*v.Spread,
			strings.Join(notes, "; "))
	}
	fmt.Println()
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

func fmtSummary(s summary) string {
	return fmt.Sprintf("%9s [%9s, %9s]", fmtValue(s.Median), fmtValue(s.Q1), fmtValue(s.Q3))
}

// addWorktree checks ref out, detached, into a new worktree of the
// repository at repo and returns its path. A worktree a killed run left
// there is removed first.
func addWorktree(ctx context.Context, repo, ref string) (string, error) {
	path := filepath.Join(repo, ".abpair", "parent")
	if _, err := os.Stat(path); err == nil {
		removeWorktree(repo, path)
	}
	if err := os.RemoveAll(path); err != nil {
		return "", err
	}
	if out, err := exec.CommandContext(ctx, "git", "-C", repo, "worktree", "prune").CombinedOutput(); err != nil {
		return "", fmt.Errorf("git worktree prune: %v\n%s", err, out)
	}
	cmd := exec.CommandContext(ctx, "git", "-C", repo, "worktree", "add", "--detach", path, ref)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("git worktree add %s: %v\n%s", ref, err, out)
	}
	return path, nil
}

func removeWorktree(repo, path string) {
	cmd := exec.Command("git", "-C", repo, "worktree", "remove", "--force", path)
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "abpair: git worktree remove %s: %v\n%s", path, err, out)
	}
}

// build runs the tree's benchmark/run.sh up to its build: run.sh builds the
// harness and cmd/batchmaker into .bench_build, then execs the harness,
// which -h makes print its usage and exit.
func build(ctx context.Context, tree string) error {
	cmd := exec.CommandContext(ctx, "bash", filepath.Join(tree, "benchmark", "run.sh"), "-h")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %s: %v\n%s", tree, err, out.Bytes())
	}
	return nil
}

// runOnce runs the tree's prebuilt harness once, as run.sh would exec it,
// and returns its result; a run that is not correct or failed requests is
// an error.
func runOnce(ctx context.Context, tree, workload string, seed, seconds, trace int) (runResult, error) {
	b := filepath.Join(tree, ".bench_build")
	cmd := exec.CommandContext(ctx, filepath.Join(b, "benchmark"), "-root", tree, "-bin", filepath.Join(b, "batchmaker"),
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Dir = tree
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var r runResult
	err := cmd.Run()
	if err == nil {
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		err = json.Unmarshal([]byte(lines[len(lines)-1]), &r)
	}
	if err == nil && (!r.Correct || r.Failed > 0) {
		err = fmt.Errorf("correct=%v failed=%d", r.Correct, r.Failed)
	}
	if err != nil {
		return r, fmt.Errorf("%s --workload %s --seed %d: %v\n%s", tree, workload, seed, err, stderr.Bytes())
	}
	return r, nil
}

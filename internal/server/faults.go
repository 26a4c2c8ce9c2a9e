package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"batchmaker/internal/tensor"
)

// FaultKind classifies one injected disturbance of a task execution.
type FaultKind int

// Fault kinds.
const (
	// FaultNone leaves the execution alone.
	FaultNone FaultKind = iota
	// FaultError makes the step fail, failing every request in the batch.
	FaultError
	// FaultPanic makes the cell panic mid-step. The worker recovers,
	// converts it into per-request failures, and stays alive.
	FaultPanic
	// FaultDelay injects a latency spike before the step runs.
	FaultDelay
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultPanic:
		return "panic"
	case FaultDelay:
		return "delay"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultDecision is one injector verdict for one execution attempt.
type FaultDecision struct {
	Kind FaultKind
	// Err overrides the injected error text for FaultError.
	Err error
	// Delay is the latency spike for FaultDelay.
	Delay time.Duration
}

// FaultInjector decides, per task execution, whether to disturb it.
// Implementations must be safe for concurrent use: every worker goroutine
// consults the injector.
type FaultInjector interface {
	Inject(typeKey string, batch int) FaultDecision
}

// ErrInjected is the default error wrapped into injected faults, so tests
// can tell injected failures from real ones.
var ErrInjected = errors.New("server: injected fault")

// RandomFaults is a seeded, concurrency-safe FaultInjector that disturbs
// each task execution independently with the configured probabilities
// (checked in order: error, panic, delay). The zero value injects nothing.
type RandomFaults struct {
	// PError, PPanic and PDelay are per-execution probabilities in [0,1].
	PError, PPanic, PDelay float64
	// Delay is the latency spike injected for delay faults.
	Delay time.Duration

	mu  sync.Mutex
	rng *tensor.RNG
}

// NewRandomFaults builds a RandomFaults with a deterministic seed.
func NewRandomFaults(seed uint64) *RandomFaults {
	return &RandomFaults{rng: tensor.NewRNG(seed)}
}

// Inject implements FaultInjector.
func (f *RandomFaults) Inject(typeKey string, batch int) FaultDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		f.rng = tensor.NewRNG(1)
	}
	p := f.rng.Float64()
	switch {
	case p < f.PError:
		return FaultDecision{Kind: FaultError}
	case p < f.PError+f.PPanic:
		return FaultDecision{Kind: FaultPanic}
	case p < f.PError+f.PPanic+f.PDelay:
		return FaultDecision{Kind: FaultDelay, Delay: f.Delay}
	}
	return FaultDecision{}
}

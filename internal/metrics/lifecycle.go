package metrics

import "fmt"

// Outcomes counts request-lifecycle events for a serving run: how many
// requests entered the system and how each one left it. It is a plain view:
// the live server fills one from its obsv counters each time Stats is read.
// The terminal states are disjoint — a request resolves
// exactly once as completed, failed, expired, or cancelled — while Rejected
// counts requests shed at admission (never admitted at all).
type Outcomes struct {
	// Admitted counts requests accepted into the scheduler.
	Admitted int
	// Completed counts requests that returned full results.
	Completed int
	// Failed counts requests terminated by an execution error (including
	// recovered cell panics and server shutdown).
	Failed int
	// Rejected counts requests shed by admission control or drain.
	Rejected int
	// Expired counts requests terminated because their deadline passed.
	Expired int
	// Cancelled counts requests terminated by caller cancellation.
	Cancelled int
	// Retries counts transient task errors that were retried (attempt
	// count, not request count).
	Retries int
	// RecoveredPanics counts cell panics converted into per-request
	// failures instead of worker deaths.
	RecoveredPanics int
}

// Resolved returns how many admitted requests reached a terminal state.
func (o Outcomes) Resolved() int {
	return o.Completed + o.Failed + o.Expired + o.Cancelled
}

// Pending returns admitted-but-unresolved requests (live in the server).
func (o Outcomes) Pending() int { return o.Admitted - o.Resolved() }

// String renders the counters as a compact report line.
func (o Outcomes) String() string {
	return fmt.Sprintf(
		"admitted=%d completed=%d failed=%d rejected=%d expired=%d cancelled=%d retries=%d panics=%d",
		o.Admitted, o.Completed, o.Failed, o.Rejected, o.Expired, o.Cancelled,
		o.Retries, o.RecoveredPanics)
}

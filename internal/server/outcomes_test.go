package server

import (
	"strings"
	"testing"
)

func TestOutcomesResolvedAndPending(t *testing.T) {
	o := Outcomes{Admitted: 10, Completed: 5, Failed: 2, Expired: 1, Cancelled: 1, Rejected: 3}
	if got := o.Resolved(); got != 9 {
		t.Fatalf("Resolved = %d, want 9", got)
	}
	if got := o.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

func TestOutcomesString(t *testing.T) {
	s := Outcomes{Admitted: 7, Expired: 2}.String()
	for _, part := range []string{"admitted=7", "expired=2", "cancelled=0", "panics=0"} {
		if !strings.Contains(s, part) {
			t.Fatalf("String() = %q missing %q", s, part)
		}
	}
}

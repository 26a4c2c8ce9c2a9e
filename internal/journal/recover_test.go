package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// lastSegmentPath returns the path of the highest-index segment in dir.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	idxs, err := listSegments(dir)
	if err != nil || len(idxs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, segmentName(idxs[len(idxs)-1]))
}

// writeIntact journals n admitted requests (ids 1..n) plus a terminal for
// id 1, closes cleanly, and returns the journal dir.
func writeIntact(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := <-j.AppendAdmit(uint64(i), []byte{byte(i)}, int64(i)*100); err != nil {
			t.Fatal(err)
		}
	}
	j.AppendTerminal(1, OutcomeCompleted, "")
	j.Close()
	return dir
}

// checkIntactPrefix asserts recovery found the torn tail AND still recovered
// every record outside it: n-1 pending (id 1 is terminal), correct payloads.
func checkIntactPrefix(t *testing.T, dir string, n int) {
	t.Helper()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornSegments == 0 || rec.TornErr == "" {
		t.Fatalf("recovery did not flag the corrupted tail: %+v", rec)
	}
	if len(rec.Pending) != n-1 {
		t.Fatalf("recovered %d pending requests, want %d (every intact request)", len(rec.Pending), n-1)
	}
	for i, p := range rec.Pending {
		wantID := uint64(i + 2) // id 1 reached terminal
		if p.ID != wantID || len(p.Payload) != 1 || p.Payload[0] != byte(wantID) || p.DeadlineNs != int64(wantID)*100 {
			t.Fatalf("pending[%d] = %+v, want intact request %d with its payload", i, p, wantID)
		}
	}
	if tr, ok := rec.Terminal[1]; !ok || tr.Outcome != OutcomeCompleted {
		t.Fatalf("terminal record for id 1 lost: %+v", rec.Terminal)
	}
}

// TestRecoverTruncatedTail is the torn-tail satellite, truncation half:
// chop the last record mid-frame (a crash mid-write) and assert replay
// skips exactly the torn tail.
func TestRecoverTruncatedTail(t *testing.T) {
	const n = 8
	dir := writeIntact(t, n)
	path := lastSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file ends ...[admit n][terminal 1]. Truncating 3 bytes tears the
	// terminal record; to instead tear the LAST ADMIT we re-journal so the
	// tail is an admit: append a fresh admit for id n+1 then truncate into it.
	j, err := Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-j.AppendAdmit(n+1, []byte{n + 1}, 0); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path = lastSegmentPath(t, dir)
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornSegments != 1 {
		t.Fatalf("torn segments = %d, want exactly the truncated one", rec.TornSegments)
	}
	// The torn admit for id n+1 is gone; ids 2..n recover pending.
	if len(rec.Pending) != n-1 {
		t.Fatalf("pending = %d requests, want %d — torn admit must be skipped, intact ones kept", len(rec.Pending), n-1)
	}
	for _, p := range rec.Pending {
		if p.ID == n+1 {
			t.Fatal("truncated admit record resurrected from the torn tail")
		}
	}
}

// TestRecoverBitFlippedTail is the torn-tail satellite, corruption half:
// flip one bit inside the last record's body and assert the CRC catches it,
// the tail is skipped, and every intact request recovers.
func TestRecoverBitFlippedTail(t *testing.T) {
	const n = 8
	dir := writeIntact(t, n)
	path := lastSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the final record's body. Locate it by decoding the
	// intact file and tracking the last frame's offset.
	off := len(segmentMagic)
	last := off
	for off < len(data) {
		_, sz, err := decodeRecord(data[off:])
		if err != nil {
			t.Fatalf("pre-corruption decode failed at %d: %v", off, err)
		}
		last = off
		off += sz
	}
	data[last+frameHeader] ^= 0x40 // corrupt the body's first byte (the kind)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Last record was terminal(1); with it corrupted, id 1 comes back
	// pending — together with 2..n that's n pending.
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornSegments != 1 || rec.TornErr == "" {
		t.Fatalf("bit flip not detected: %+v", rec)
	}
	if len(rec.Pending) != n {
		t.Fatalf("pending = %d, want %d (corrupted terminal means id 1 replays too)", len(rec.Pending), n)
	}
}

// TestRecoverTornMiddleSegmentKeepsLaterSegments: corruption in an earlier
// segment must not hide later sealed segments.
func TestRecoverBadMagicSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Sync: SyncNone, SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if err := <-j.AppendAdmit(uint64(i), make([]byte, 40), 0); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	idxs, _ := listSegments(dir)
	if len(idxs) < 3 {
		t.Fatalf("want >=3 segments, got %v", idxs)
	}
	// Destroy the magic of a middle segment.
	mid := filepath.Join(dir, segmentName(idxs[1]))
	if err := os.WriteFile(mid, []byte("GARBAGE!"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornSegments != 1 {
		t.Fatalf("torn segments = %d, want 1", rec.TornSegments)
	}
	// Requests from the destroyed segment are lost; segments before and
	// after must both contribute.
	if rec.Segments != len(idxs) || len(rec.Pending) == 0 || len(rec.Pending) >= 6 {
		t.Fatalf("recovery after mid-segment loss: %d segments, %d pending", rec.Segments, len(rec.Pending))
	}
}

package mpi

import (
	"bytes"
	"testing"
)

// TestWorldSnapshotRoundTrip covers the in-flight-message case: messages
// queued in the mail channels and set aside in a pending buffer at the cut
// must survive snapshot → consume/mutate → restore, repeatedly, with no
// aliasing between the snapshot and live buffers.
func TestWorldSnapshotRoundTrip(t *testing.T) {
	j := NewJob(2, 0)
	e0, e1 := j.Endpoint(0), j.Endpoint(1)

	// Three in-flight messages from rank 0: tags 7 and 8 queued, and tag 9
	// forced into rank 1's pending buffer by a tag-8 receive.
	for _, m := range []struct {
		tag  int
		body string
	}{{9, "pending-nine"}, {7, "queued-seven"}, {8, "queued-eight"}} {
		if err := e0.Send(1, m.tag, []byte(m.body)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e1.Recv(0, 8)
	if err != nil || string(got) != "queued-eight" {
		t.Fatalf("recv tag 8 = %q, %v", got, err)
	}
	// Now: pending[0] holds tag 9, mail holds tag 7.

	snap := j.SnapshotWorld(nil)

	drain := func(label string) {
		t.Helper()
		for _, want := range []struct {
			tag  int
			body string
		}{{7, "queued-seven"}, {9, "pending-nine"}} {
			b, err := e1.Recv(0, want.tag)
			if err != nil {
				t.Fatalf("%s: recv tag %d: %v", label, want.tag, err)
			}
			if !bytes.Equal(b, []byte(want.body)) {
				t.Fatalf("%s: recv tag %d = %q, want %q", label, want.tag, b, want.body)
			}
			// Scribble over the received buffer: a restore that aliased
			// snapshot bytes would replay this garbage.
			for i := range b {
				b[i] = 0xFF
			}
		}
	}

	drain("first consume")
	for round := 0; round < 3; round++ {
		j.RestoreWorld(snap)
		drain("after restore")
	}

	// Restoring an empty-world snapshot onto a dirty world must clear it.
	j2 := NewJob(2, 0)
	if err := j2.Endpoint(0).Send(1, 3, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	emptySnap := NewJob(2, 0).SnapshotWorld(nil)
	j2.RestoreWorld(emptySnap)
	// With rank 0 gone, an empty queue fails the receive at once.
	j2.Leave(0)
	if b, err := j2.Endpoint(1).Recv(0, 3); err == nil {
		t.Fatalf("restore of an empty world left %q queued", b)
	}
}

// TestWorldSnapshotReuseBacking checks that snapshotting into an existing
// WorldSnap of the same shape reuses it and replaces stale contents.
func TestWorldSnapshotReuseBacking(t *testing.T) {
	j := NewJob(2, 0)
	e0, e1 := j.Endpoint(0), j.Endpoint(1)
	if err := e0.Send(1, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	s := j.SnapshotWorld(nil)
	if _, err := e1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e0.Send(1, 2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	// Re-capture into the same WorldSnap: the old tag-1 message must be gone.
	s = j.SnapshotWorld(s)
	j.RestoreWorld(s)
	if b, err := e1.Recv(0, 2); err != nil || string(b) != "two" {
		t.Fatalf("recv tag 2 = %q, %v", b, err)
	}
	j.RestoreWorld(s)
	if b, err := e1.Recv(0, 2); err != nil || string(b) != "two" {
		t.Fatalf("second restore: recv tag 2 = %q, %v", b, err)
	}
}

// TestRestoreWorldSizeMismatchPanics pins the shape guard.
func TestRestoreWorldSizeMismatchPanics(t *testing.T) {
	j := NewJob(2, 0)
	s := j.SnapshotWorld(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreWorld across job sizes did not panic")
		}
	}()
	NewJob(3, 0).RestoreWorld(s)
}

package mpi

import (
	"errors"
	"testing"
	"time"
)

func TestCollectiveDesertsWhenPeerLeaves(t *testing.T) {
	j := NewJob(2, 0)
	errCh := make(chan error, 1)
	go func() {
		errCh <- j.Endpoint(1).Barrier()
	}()
	// Give rank 1 a moment to block in the round, then desert as rank 0.
	time.Sleep(10 * time.Millisecond)
	j.Leave(0)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDeserted) {
			t.Fatalf("barrier after peer left: got %v, want ErrDeserted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier did not desert; still blocked")
	}
}

func TestCollectiveDesertsWhenPeerAlreadyLeft(t *testing.T) {
	j := NewJob(2, 0)
	j.Leave(0)
	if err := j.Endpoint(1).Barrier(); !errors.Is(err, ErrDeserted) {
		t.Fatalf("barrier with departed peer: got %v, want ErrDeserted", err)
	}
}

func TestRecvDrainsQueueThenDeserts(t *testing.T) {
	j := NewJob(2, 0)
	e0, e1 := j.Endpoint(0), j.Endpoint(1)
	if err := e0.Send(1, 7, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	j.Leave(0)
	// The queued message survives the departure and must still be delivered.
	got, err := e1.Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "last words" {
		t.Errorf("got %q", got)
	}
	// Nothing further can ever arrive.
	if _, err := e1.Recv(0, 7); !errors.Is(err, ErrDeserted) {
		t.Fatalf("recv from departed rank: got %v, want ErrDeserted", err)
	}
}

func TestRecvDesertsWhileBlocked(t *testing.T) {
	j := NewJob(2, 0)
	errCh := make(chan error, 1)
	go func() {
		_, err := j.Endpoint(1).Recv(0, 7)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	j.Leave(0)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDeserted) {
			t.Fatalf("recv after peer left: got %v, want ErrDeserted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv did not desert; still blocked")
	}
}

func TestSendToDepartedRankDesertsWhenQueueFull(t *testing.T) {
	j := NewJob(2, 0)
	e0 := j.Endpoint(0)
	// Fill rank 1's queue from rank 0; the next send must block.
	for i := 0; i < cap(j.mail[1][0]); i++ {
		if err := e0.Send(1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	j.Leave(1)
	if err := e0.Send(1, 1, nil); !errors.Is(err, ErrDeserted) {
		t.Fatalf("send to departed rank with full queue: got %v, want ErrDeserted", err)
	}
}

func TestRecycleClearsDepartures(t *testing.T) {
	j := NewJob(2, 0)
	j.Leave(0)
	if err := j.Endpoint(1).Barrier(); !errors.Is(err, ErrDeserted) {
		t.Fatalf("pre-recycle barrier: got %v, want ErrDeserted", err)
	}
	if !j.Recycle(2) {
		t.Fatal("recycle refused a same-shape job")
	}
	// With the departure cleared, a lone barrier parks; once rank 0 parks
	// too, in a receive nobody will satisfy, both calls end in a deadlock,
	// not a desertion.
	errCh := make(chan error, 1)
	go func() { errCh <- j.Endpoint(1).Barrier() }()
	if _, err := j.Endpoint(0).Recv(1, 7); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("post-recycle recv: got %v, want ErrDeadlock", err)
	}
	if err := <-errCh; !errors.Is(err, ErrDeadlock) {
		t.Fatalf("post-recycle barrier: got %v, want ErrDeadlock", err)
	}
}

func TestLeaveIsIdempotentAndDoesNotAbort(t *testing.T) {
	j := NewJob(2, 0)
	j.Leave(0)
	j.Leave(0)
	if j.Aborted() {
		t.Fatal("Leave must not abort the job")
	}
	if j.nleft != 1 || j.waits[0].kind != gone || j.waits[1].kind != running {
		t.Fatalf("departures wrong: nleft %d, waits %v", j.nleft, j.waits)
	}
}

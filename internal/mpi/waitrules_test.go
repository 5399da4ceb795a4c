package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ir"
)

// The wait rule decides how every blocked call ends. With ranks that Leave
// on any error (instead of killing the job), each rank's ending is a pure
// function of the programs the ranks run, so a sequential oracle can
// predict it: FuzzWaitRules checks the job against that oracle over random
// scripts of point-to-point and collective operations.

type opKind uint8

const (
	opSend opKind = iota
	opRecv
	opColl // the k-th collective of a rank is a Barrier for even k, else an Allreduce
	opExit
)

type scriptOp struct {
	kind      opKind
	peer, tag int
}

type ending uint8

const (
	completed ending = iota
	deserted
	deadlocked
)

func (e ending) String() string {
	return [...]string{"completed", "ErrDeserted", "ErrDeadlock"}[e]
}

// decodeScripts turns fuzz bytes into 2–5 rank scripts of up to 8 ops:
// one byte for the rank count, then per rank a length byte and one byte
// per op (kind in bits 0–1, peer in bits 2–4, tag in bit 5).
func decodeScripts(data []byte) [][]scriptOp {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next()%4)
	scripts := make([][]scriptOp, n)
	for r := range scripts {
		l := int(next() % 9)
		for i := 0; i < l; i++ {
			b := next()
			scripts[r] = append(scripts[r], scriptOp{kind: opKind(b & 3), peer: int(b>>2&7) % n, tag: int(b>>5) & 1})
		}
	}
	return scripts
}

// encodeScripts is decodeScripts' inverse, for the seed corpus.
func encodeScripts(scripts [][]scriptOp) []byte {
	out := []byte{byte(len(scripts) - 2)}
	for _, s := range scripts {
		out = append(out, byte(len(s)))
		for _, o := range s {
			out = append(out, byte(o.kind)|byte(o.peer)<<2|byte(o.tag)<<5)
		}
	}
	return out
}

// oracle runs the scripts sequentially: every rank advances as far as it
// can (sends never block: scripts stay far below the queue depth), then
// blocked ranks whose partner has gone are deserted — and gone themselves
// — until none is left, and whoever is still blocked is deadlocked.
func oracle(scripts [][]scriptOp) []ending {
	n := len(scripts)
	pc := make([]int, n)
	left := make([]bool, n)
	inRound := make([]bool, n)
	joined := 0
	queue := make([][][]int, n) // queue[dst][src]: tags in FIFO order
	for r := range queue {
		queue[r] = make([][]int, n)
	}
	for progress := true; progress; {
		progress = false
		for r := 0; r < n; r++ {
		run:
			for !left[r] {
				if pc[r] == len(scripts[r]) {
					left[r] = true
					break
				}
				o := scripts[r][pc[r]]
				switch o.kind {
				case opExit:
					left[r] = true
					break run
				case opSend:
					queue[o.peer][r] = append(queue[o.peer][r], o.tag)
				case opRecv:
					q, i := queue[r][o.peer], 0
					for i < len(q) && q[i] != o.tag {
						i++
					}
					if i == len(q) {
						break run
					}
					queue[r][o.peer] = append(q[:i], q[i+1:]...)
				case opColl:
					if inRound[r] {
						break run
					}
					inRound[r] = true
					joined++
					if joined < n {
						break run
					}
					for i := range inRound {
						inRound[i] = false
						if i != r {
							pc[i]++
						}
					}
					joined = 0
				}
				pc[r]++
				progress = true
			}
		}
	}
	ends := make([]ending, n)
	blocked := make([]bool, n)
	for r := range blocked {
		blocked[r] = !left[r]
	}
	for changed := true; changed; {
		changed = false
		for r := range blocked {
			if !blocked[r] {
				continue
			}
			o, gone := scripts[r][pc[r]], false
			if o.kind == opRecv {
				gone = left[o.peer]
			} else {
				for i := range left {
					gone = gone || left[i] && !inRound[i]
				}
			}
			if gone {
				ends[r], left[r], blocked[r] = deserted, true, false
				changed = true
			}
		}
	}
	for r := range blocked {
		if blocked[r] {
			ends[r] = deadlocked
		}
	}
	return ends
}

// runScript executes one rank's script, checking that every message and
// allreduce result is the one the program order implies.
func runScript(e *Endpoint, script []scriptOp) error {
	n := e.Size()
	sent := make([]int, 2*n) // per (peer, tag) sequence numbers
	got := make([]int, 2*n)
	colls := 0
	for _, o := range script {
		switch o.kind {
		case opExit:
			return nil
		case opSend:
			msg := binary.LittleEndian.AppendUint64(nil, uint64(sent[2*o.peer+o.tag]))
			sent[2*o.peer+o.tag]++
			if err := e.Send(o.peer, o.tag, msg); err != nil {
				return err
			}
		case opRecv:
			msg, err := e.Recv(o.peer, o.tag)
			if err != nil {
				return err
			}
			if seq := binary.LittleEndian.Uint64(msg); seq != uint64(got[2*o.peer+o.tag]) {
				return fmt.Errorf("recv from %d tag %d: message %d, want %d", o.peer, o.tag, seq, got[2*o.peer+o.tag])
			}
			got[2*o.peer+o.tag]++
		case opColl:
			if colls%2 == 0 {
				if err := e.Barrier(); err != nil {
					return err
				}
			} else {
				one := []uint64{1}
				sum, _, err := e.Allreduce(one, one, ir.ReduceSum, false)
				if err != nil {
					return err
				}
				if sum[0] != uint64(n) {
					return fmt.Errorf("allreduce %d: sum %d, want %d", colls, sum[0], n)
				}
			}
			colls++
		}
	}
	return nil
}

// runJob runs every script on its own rank; each rank leaves when its
// script ends, whether it completed or failed.
func runJob(t *testing.T, scripts [][]scriptOp) []error {
	t.Helper()
	j := NewJob(len(scripts), 0)
	errs := make([]error, len(scripts))
	var wg sync.WaitGroup
	for r := range scripts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = runScript(j.Endpoint(r), scripts[r])
			j.Leave(r)
		}(r)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("scripts %v: job still blocked after 10 s", scripts)
	}
	return errs
}

func endingOf(err error) (ending, bool) {
	switch {
	case err == nil:
		return completed, true
	case errors.Is(err, ErrDeserted):
		return deserted, true
	case errors.Is(err, ErrDeadlock):
		return deadlocked, true
	}
	return 0, false
}

// waitSeeds are hand-written cases with the endings the wait rule must
// produce; they seed the fuzzer and check the oracle itself.
var waitSeeds = func() []struct {
	scripts [][]scriptOp
	want    []ending
} {
	send := func(peer, tag int) scriptOp { return scriptOp{kind: opSend, peer: peer, tag: tag} }
	recv := func(peer, tag int) scriptOp { return scriptOp{kind: opRecv, peer: peer, tag: tag} }
	coll, exit := scriptOp{kind: opColl}, scriptOp{kind: opExit}
	C, S, D := completed, deserted, deadlocked
	return []struct {
		scripts [][]scriptOp
		want    []ending
	}{
		// Ring exchange, then two collectives: everyone completes.
		{[][]scriptOp{{send(1, 0), recv(2, 0), coll, coll}, {send(2, 0), recv(0, 0), coll, coll}, {send(0, 0), recv(1, 0), coll, coll}}, []ending{C, C, C}},
		// Mutual receive: deadlock.
		{[][]scriptOp{{recv(1, 0)}, {recv(0, 0)}}, []ending{D, D}},
		// Tag mismatch: the message is set aside, the receive deadlocks.
		{[][]scriptOp{{send(1, 1), recv(1, 0)}, {recv(0, 0)}}, []ending{D, D}},
		// A rank exits before the barrier: the others are deserted.
		{[][]scriptOp{{coll}, {exit, coll}, {coll}}, []ending{S, C, S}},
		// Desertion cascades: 2 waits on 1, which waits on 0, which exits.
		{[][]scriptOp{{exit}, {recv(0, 0), send(2, 0)}, {recv(1, 0)}}, []ending{C, S, S}},
		// A barrier and a receive from itself: deadlock for both.
		{[][]scriptOp{{coll}, {recv(1, 1)}}, []ending{D, D}},
		// Rank 2 completes while 0 and 1 wait on each other: deadlock, not
		// desertion, since neither partner has gone.
		{[][]scriptOp{{recv(1, 0)}, {recv(0, 0)}, {send(0, 1)}}, []ending{D, D, C}},
	}
}()

func TestWaitOracle(t *testing.T) {
	for i, s := range waitSeeds {
		got := oracle(s.scripts)
		for r := range got {
			if got[r] != s.want[r] {
				t.Errorf("seed %d rank %d: oracle says %v, want %v", i, r, got[r], s.want[r])
			}
		}
	}
}

func FuzzWaitRules(f *testing.F) {
	for _, s := range waitSeeds {
		f.Add(encodeScripts(s.scripts))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scripts := decodeScripts(data)
		want := oracle(scripts)
		for r, err := range runJob(t, scripts) {
			got, ok := endingOf(err)
			if !ok {
				t.Fatalf("scripts %v: rank %d failed: %v", scripts, r, err)
			}
			if got != want[r] {
				t.Errorf("scripts %v: rank %d ended %v, oracle says %v", scripts, r, got, want[r])
			}
		}
	})
}

// TestBlockedSend covers the wait the fuzz scripts never reach: a Send
// parked on a full queue (cap 1024) ends in a deadlock when the receiver
// is parked on another source, and in a desertion once the receiver has
// left.
func TestBlockedSend(t *testing.T) {
	flood := func(e *Endpoint) error {
		for i := 0; i < 1025; i++ {
			if err := e.Send(1, 0, nil); err != nil {
				if i < 1024 {
					return fmt.Errorf("send %d failed early: %w", i, err)
				}
				return err
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		// rank2 is what rank 2 does while rank 1 waits on it.
		rank2 func(e *Endpoint) error
		want  error
	}{
		{"receiver parked on another source", func(e *Endpoint) error { return e.Barrier() }, ErrDeadlock},
		{"receiver left", func(e *Endpoint) error { return nil }, ErrDeserted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := NewJob(3, 0)
			errs := make([]error, 3)
			var wg sync.WaitGroup
			for r, body := range []func(e *Endpoint) error{
				flood,
				func(e *Endpoint) error { _, err := e.Recv(2, 0); return err },
				tc.rank2,
			} {
				wg.Add(1)
				go func(r int, body func(e *Endpoint) error) {
					defer wg.Done()
					errs[r] = body(j.Endpoint(r))
					j.Leave(r)
				}(r, body)
			}
			wg.Wait()
			if !errors.Is(errs[0], tc.want) {
				t.Errorf("blocked send: got %v, want %v", errs[0], tc.want)
			}
			if !errors.Is(errs[1], tc.want) {
				t.Errorf("receiver: got %v, want %v", errs[1], tc.want)
			}
		})
	}
}

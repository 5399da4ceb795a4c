// Package mpi is the in-process message-passing runtime that stands in for
// MPI in the paper's experiments. Each rank is a goroutine executing its own
// VM over a private address space; ranks exchange byte messages (payload +
// contamination header, paper Fig. 4) over per-pair ordered queues, and
// synchronize through rendezvous-based collectives.
//
// Failure semantics mirror a production MPI: when any rank dies — a trap, an
// application MPI_Abort, or a framework kill — the whole job aborts and every
// blocked communication call returns an error, so sibling ranks crash out
// instead of hanging (class C in the outcome taxonomy). A blocked call that
// can provably never complete fails too, at the moment that becomes certain
// (ErrDeserted, ErrDeadlock), so no run waits on a wall clock. Every rank
// must end with Leave or Kill: a rank that neither runs nor has left would
// keep its peers' waits open forever.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/vm"
)

// ErrAborted is returned by communication calls after the job has aborted.
var ErrAborted = errors.New("mpi: job aborted")

// ErrDeserted is returned when a blocking call can provably never complete
// because a peer rank it depends on has left the job: a collective round
// missing a departed rank will never fill, a receive from a departed rank
// with an empty queue will never match, and a departed rank will never
// drain a full queue. A desynchronized collective schedule is a common
// consequence of an injected fault corrupting a trip count. It surfaces in
// the VM as a peer-failure trap, like ErrAborted.
var ErrDeserted = errors.New("mpi: peer rank finished; operation can never complete")

// ErrDeadlock is returned to every blocked call once no rank of the job is
// running: each one is parked in a call or has left, so nothing can ever
// complete a wait. A fault that desynchronizes the schedule while every
// rank stays in the job — each waits on a message or round that no peer
// will provide — ends this way. It surfaces in the VM as a peer-failure
// trap, like ErrAborted.
var ErrDeadlock = errors.New("mpi: every rank is blocked; operation can never complete")

type message struct {
	tag  int
	data []byte
}

// waitKind is a rank's state in the wait rule: running, parked in a call
// (and on what), or gone.
type waitKind uint8

const (
	running waitKind = iota
	onRecv           // parked in Recv until peer's queue to it is non-empty
	onSend           // parked in Send until its queue to peer has room
	onColl           // parked in a collective until the current round fills
	gone             // left the job; never communicates again
)

type rankWait struct {
	kind waitKind
	peer int // the partner of onRecv/onSend
}

// Job is one parallel run: size ranks, their mailboxes, and the shared
// collective state.
type Job struct {
	size int

	// mail[dst][src] is the ordered queue of messages from src to dst.
	mail [][]chan message

	// mu guards the wait rule's state — waits, nparked, nleft, killed,
	// done — and the collective rounds. A rank is recorded as parked only
	// after its wait was found unsatisfied under mu, and whoever makes a
	// parked wait completable clears the record under mu before waking the
	// rank, so nparked is exact: when nparked+nleft == size no rank is
	// running and no wait can ever complete.
	mu      sync.Mutex
	waits   []rankWait
	nparked int
	nleft   int
	killed  bool
	done    chan struct{}
	flag    vm.AbortFlag

	coll coll
	eps  []Endpoint

	// World-restore bookkeeping for the snapshot-fork fast path. worldGen
	// names the WorldSnap the mail/pending state last equalled (0: state
	// is drained-empty or unknown), verified by comparing the sum of the
	// endpoints' op counters against worldOps: any Send/Recv since then
	// may have moved messages, so the state is no longer trusted and the
	// next Recycle/RestoreWorld falls back to the full drain+refill.
	worldGen uint64
	worldOps uint64

	// bufs is the wire-buffer freelist: receivers return fully consumed
	// message buffers here and senders draw from it, so steady-state
	// point-to-point traffic allocates no new buffers.
	bufs chan []byte
}

// NewJob creates a job with the given number of ranks. The second argument
// is ignored: blocked calls end by the wait rule, not by a wall clock. It
// remains so existing callers keep compiling.
func NewJob(size int, _ time.Duration) *Job {
	if size <= 0 {
		panic("mpi: job size must be positive")
	}
	j := &Job{
		size:  size,
		mail:  make([][]chan message, size),
		waits: make([]rankWait, size),
		done:  make(chan struct{}),
		bufs:  make(chan []byte, 256),
	}
	for dst := range j.mail {
		j.mail[dst] = make([]chan message, size)
		for src := range j.mail[dst] {
			j.mail[dst][src] = make(chan message, 1024)
		}
	}
	j.coll.size = size
	j.eps = make([]Endpoint, size)
	for r := range j.eps {
		j.eps[r] = Endpoint{job: j, rank: r, pending: make([][]message, size), wake: make(chan error, 1)}
	}
	return j
}

// Recycle prepares a completed job for another run of the same shape:
// mailboxes are drained, pending buffers emptied and collective state
// cleared, while the channels and endpoints survive. An aborted job gets a
// fresh done channel and a lowered abort flag — once every rank goroutine
// has exited there is nothing left to observe the old ones. It returns
// false — leaving the job untouched — when the shape differs; the caller
// must then build a fresh job. Only call between runs, with no rank
// goroutines alive.
func (j *Job) Recycle(size int) bool {
	if j.size != size {
		return false
	}
	j.mu.Lock()
	if j.killed {
		j.killed = false
		j.done = make(chan struct{})
		j.flag.Lower()
	}
	clear(j.waits)
	j.nparked, j.nleft = 0, 0
	j.coll.cur = nil
	j.mu.Unlock()
	// Skip the mail/pending drain when the world still equals the last
	// restored snapshot (no Send/Recv ran since): the next RestoreWorld of
	// the same snapshot is then a no-op, which is the common case when one
	// worker forks consecutive experiments from the same cut. Any op since
	// the restore invalidates the claim and the full drain runs.
	if j.worldGen == 0 || j.opsSum() != j.worldOps {
		j.drainWorld()
	}
	return true
}

// opsSum totals the endpoints' Send/Recv counters. Only meaningful at
// quiescent points, with no rank goroutines alive.
func (j *Job) opsSum() uint64 {
	var n uint64
	for r := range j.eps {
		n += j.eps[r].ops
	}
	return n
}

// drainWorld empties every mailbox and pending buffer and marks the
// world state as no longer matching any snapshot.
func (j *Job) drainWorld() {
	for _, row := range j.mail {
		for _, ch := range row {
			for {
				select {
				case <-ch:
					continue
				default:
				}
				break
			}
		}
	}
	for r := range j.eps {
		e := &j.eps[r]
		for src := range e.pending {
			clear(e.pending[src])
			e.pending[src] = e.pending[src][:0]
		}
		e.ops = 0
	}
	j.worldGen = 0
	j.worldOps = 0
}

// ClearWorld guarantees an empty message-passing state before a
// non-forked run on a recycled job: a Recycle that kept snapshot state
// in place (see above) is followed by either RestoreWorld — forked runs —
// or ClearWorld. No-op when the world is already drained.
func (j *Job) ClearWorld() {
	if j.worldGen != 0 {
		j.drainWorld()
	}
}

// Size returns the number of ranks.
func (j *Job) Size() int { return j.size }

// Flag returns the job's abort flag, to be shared with every rank's VM.
func (j *Job) Flag() *vm.AbortFlag { return &j.flag }

// Kill aborts the job: the abort flag is raised and all blocked
// communication calls return ErrAborted. Idempotent.
func (j *Job) Kill() {
	j.mu.Lock()
	if !j.killed {
		j.killed = true
		j.flag.Raise()
		close(j.done)
		for r := range j.waits {
			if j.parked(r) {
				j.wake(r, ErrAborted)
			}
		}
	}
	j.mu.Unlock()
}

// Done returns the channel closed when the job aborts, for callers that
// must not block forever on a job that died. Capture it once per run:
// Recycle replaces the channel after an aborted run.
func (j *Job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// Aborted reports whether the job has been killed.
func (j *Job) Aborted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.killed
}

// Leave records that rank's goroutine has returned and will never
// communicate again. Departure can make other waits hopeless, so the wait
// rule is re-checked. The caller must guarantee all of rank's sends
// happened before Leave (returning from the rank's program body does).
// Idempotent.
func (j *Job) Leave(rank int) {
	if rank < 0 || rank >= j.size {
		panic(fmt.Sprintf("mpi: leave of invalid rank %d", rank))
	}
	j.mu.Lock()
	if j.waits[rank].kind != gone {
		j.waits[rank] = rankWait{kind: gone}
		j.nleft++
		j.check()
	}
	j.mu.Unlock()
}

// park blocks rank r on w. Call it with j.mu held; it returns with j.mu
// released. It returns nil once the wait may have become completable —
// the caller re-tries its operation — or the error that ends the wait.
// Recv and Send publish their endpoint's recvFrom/sendTo hint before
// taking j.mu, so a peer that completes the wait without the lock either
// sees the hint and wakes r, or acts before the re-check below sees its
// effect.
func (j *Job) park(r int, w rankWait) error {
	j.waits[r] = w
	j.nparked++
	switch {
	case j.killed:
		j.wake(r, ErrAborted)
	case j.ready(r):
		j.wake(r, nil)
	default:
		j.check()
	}
	j.mu.Unlock()
	return <-j.eps[r].wake
}

// ready reports whether parked rank r's wait is already satisfied. Only
// r consumes from its incoming queue and only r fills its outgoing one, so
// a satisfied wait stays satisfied until r acts.
func (j *Job) ready(r int) bool {
	w := j.waits[r]
	switch w.kind {
	case onRecv:
		return len(j.mail[r][w.peer]) > 0
	case onSend:
		ch := j.mail[w.peer][r]
		return len(ch) < cap(ch)
	}
	// A collective round is filled under j.mu by its last arrival.
	return false
}

// check wakes the parked ranks whose wait can never complete: first those
// deserted by a departed partner (ErrDeserted), then — if no rank is left
// running — every parked rank (ErrDeadlock). It runs under j.mu on every
// park and every Leave, the only events that can make a wait hopeless.
func (j *Job) check() {
	if j.nleft > 0 {
		for r := range j.waits {
			if j.parked(r) && j.deserted(r) {
				j.wake(r, ErrDeserted)
			}
		}
	}
	if j.nparked > 0 && j.nparked+j.nleft == j.size {
		for r := range j.waits {
			if j.parked(r) {
				j.wake(r, ErrDeadlock)
			}
		}
	}
}

// deserted reports whether parked rank r waits on a departed rank: its
// point-to-point partner, or any rank missing from its collective round.
// (A parked receiver's queue is empty and all of a departed sender's
// messages were queued before it left, so none can ever arrive.)
func (j *Job) deserted(r int) bool {
	w := j.waits[r]
	if w.kind != onColl {
		return j.waits[w.peer].kind == gone
	}
	for i, p := range j.coll.cur.present {
		if !p && j.waits[i].kind == gone {
			return true
		}
	}
	return false
}

func (j *Job) parked(r int) bool {
	k := j.waits[r].kind
	return k != running && k != gone
}

// wake ends parked rank r's wait with err (nil: re-try the operation),
// recording it as running again and clearing its hints. The send never
// blocks: only the waker that clears a park sends, so the one-slot
// channel is empty.
func (j *Job) wake(r int, err error) {
	j.waits[r] = rankWait{}
	j.nparked--
	e := &j.eps[r]
	e.recvFrom.Store(0)
	e.sendTo.Store(0)
	e.wake <- err
}

// release wakes rank r if it is still parked on w, which the caller has
// just satisfied. The lock-free hint load that precedes a release keeps
// the common case — nobody waiting — off j.mu.
func (j *Job) release(r int, w rankWait) {
	j.mu.Lock()
	if j.waits[r] == w {
		j.wake(r, nil)
	}
	j.mu.Unlock()
}

// Endpoint returns rank r's endpoint. Each endpoint must be used by a
// single goroutine.
func (j *Job) Endpoint(r int) *Endpoint {
	if r < 0 || r >= j.size {
		panic(fmt.Sprintf("mpi: rank %d out of range", r))
	}
	return &j.eps[r]
}

// Endpoint is one rank's connection to the job. It implements
// vm.MPIEndpoint.
type Endpoint struct {
	job  *Job
	rank int
	// pending[src] buffers messages received from src while looking for a
	// specific tag (tag matching with per-pair ordering).
	pending [][]message
	// recvFrom and sendTo hold peer+1 while the rank is parked, or about
	// to park, in Recv from peer or in Send to peer (0 otherwise). Peers
	// load them without the job lock after queueing a message or making
	// room, and take the lock only to wake a rank that waits on them.
	recvFrom, sendTo atomic.Int32
	// wake carries the one token that ends a park.
	wake chan error
	// ops counts Send/Recv calls on this endpoint. Written only by the
	// rank's own goroutine, read only at quiescent points (between runs);
	// the job sums it to detect whether point-to-point state may have
	// changed since a world restore.
	ops uint64
}

var _ vm.MPIEndpoint = (*Endpoint)(nil)

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the job size.
func (e *Endpoint) Size() int { return e.job.size }

// Send enqueues msg for rank dst. It blocks only when dst's queue is full.
func (e *Endpoint) Send(dst, tag int, msg []byte) error {
	if dst < 0 || dst >= e.job.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	e.ops++
	j, ch := e.job, e.job.mail[dst][e.rank]
	for {
		select {
		case ch <- message{tag: tag, data: msg}:
			if j.eps[dst].recvFrom.Load() == int32(e.rank+1) {
				j.release(dst, rankWait{kind: onRecv, peer: e.rank})
			}
			return nil
		default:
		}
		e.sendTo.Store(int32(dst + 1))
		j.mu.Lock()
		if err := j.park(e.rank, rankWait{kind: onSend, peer: dst}); err != nil {
			return err
		}
	}
}

// Recv blocks until a message with the given tag arrives from src.
// Messages from src with other tags are buffered and matched by later
// receives, preserving per-(pair, tag) ordering.
func (e *Endpoint) Recv(src, tag int) ([]byte, error) {
	if src < 0 || src >= e.job.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	e.ops++
	// Check messages already set aside.
	for i, m := range e.pending[src] {
		if m.tag == tag {
			e.pending[src] = append(e.pending[src][:i], e.pending[src][i+1:]...)
			return m.data, nil
		}
	}
	j, ch := e.job, e.job.mail[e.rank][src]
	for {
		select {
		case m := <-ch:
			if j.eps[src].sendTo.Load() == int32(e.rank+1) {
				j.release(src, rankWait{kind: onSend, peer: e.rank})
			}
			if m.tag == tag {
				return m.data, nil
			}
			e.pending[src] = append(e.pending[src], m)
			continue
		default:
		}
		e.recvFrom.Store(int32(src + 1))
		j.mu.Lock()
		if err := j.park(e.rank, rankWait{kind: onRecv, peer: src}); err != nil {
			return nil, err
		}
	}
}

// Barrier blocks until every rank has entered it.
func (e *Endpoint) Barrier() error {
	_, err := e.job.join(e.rank, contribution{})
	return err
}

// Allreduce combines the primary and pristine word vectors of all ranks.
func (e *Endpoint) Allreduce(prim, prist []uint64, op ir.ReduceOp, isFloat bool) ([]uint64, []uint64, error) {
	res, err := e.job.join(e.rank, contribution{
		kind: collAllreduce, prim: prim, prist: prist, op: op, isFloat: isFloat,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.prim, res.prist, nil
}

// Bcast distributes root's message; non-root ranks pass nil.
func (e *Endpoint) Bcast(root int, msg []byte) ([]byte, error) {
	if root < 0 || root >= e.job.size {
		return nil, fmt.Errorf("mpi: bcast root %d invalid", root)
	}
	isRoot := e.rank == root
	res, err := e.job.join(e.rank, contribution{
		kind: collBcast, bcast: msg, isRoot: isRoot,
	})
	if err != nil {
		return nil, err
	}
	return res.bcast, nil
}

// Abort kills the whole job (MPI_Abort).
func (e *Endpoint) Abort(code int64) { e.job.Kill() }

// GetBuf returns a recycled wire buffer (nil when none is available). The
// VM's message layer uses this (through an optional interface) to keep
// steady-state traffic allocation-free.
func (e *Endpoint) GetBuf() []byte {
	select {
	case b := <-e.job.bufs:
		return b
	default:
		return nil
	}
}

// PutBuf returns a fully consumed wire buffer to the freelist. Only the
// sole consumer of a buffer may return it — recycling a buffer shared with
// any other reader would corrupt a future message.
func (e *Endpoint) PutBuf(b []byte) {
	select {
	case e.job.bufs <- b:
	default:
	}
}

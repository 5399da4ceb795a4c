package vm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/transform"
)

// buildTickedAccum builds a single-process program: each of `steps`
// timesteps adds step-dependent values into an accumulator array and
// outputs the final checksum. All arithmetic flows through memory, so an
// injected fault contaminates the array and a rollback must undo it.
func buildTickedAccum(steps int64) *ir.Program {
	b := ir.NewBuilder()
	acc := b.Global("acc", 8)
	f := b.Func("main", 0, 0)
	s := f.NewReg()
	i := f.NewReg()
	f.For(s, ir.ImmI(0), ir.ImmI(steps), func() {
		f.Tick(ir.R(s))
		f.For(i, ir.ImmI(0), ir.ImmI(8), func() {
			old := f.Ld(ir.ImmI(acc), ir.R(i))
			inc := f.FMul(ir.R(f.SIToFP(ir.R(f.Add(ir.R(s), ir.ImmI(1))))), ir.ImmF(0.25))
			f.St(ir.R(f.FAdd(ir.R(old), ir.R(inc))), ir.ImmI(acc), ir.R(i))
		})
	})
	sum := f.CF(0)
	f.For(i, ir.ImmI(0), ir.ImmI(8), func() {
		f.Op3(ir.FAdd, sum, ir.R(sum), ir.R(f.Ld(ir.ImmI(acc), ir.R(i))))
	})
	f.OutputF(ir.R(sum))
	f.Iterations(ir.ImmI(steps))
	f.Ret()
	return b.MustBuild()
}

func instrumentT(t *testing.T, prog *ir.Program) *ir.Program {
	t.Helper()
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestCheckpointRollbackRecoversGoldenOutput(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(12))
	golden := New(inst, Config{})
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	sites := golden.Sites()
	if sites == 0 {
		t.Fatal("no sites")
	}
	// Find a fault that corrupts the output when unprotected, then show
	// the checkpointed run recovers the golden output.
	recovered := 0
	for seed := uint64(0); seed < 40 && recovered < 3; seed++ {
		plan := inject.Plan{Faults: []inject.Fault{{
			Site: (sites * seed) / 40, Bit: uint(50 - seed%20),
		}}}
		plain := New(inst, Config{Injector: inject.NewRankInjector(plan, 0)})
		if err := plain.Run(); err != nil {
			continue // crashed; rollback-on-trap is out of scope here
		}
		if len(plain.Outputs()) == 0 || plain.Outputs()[0] == golden.Outputs()[0] {
			continue // fault masked; uninteresting
		}
		prot := New(inst, Config{
			Injector:        inject.NewRankInjector(plan, 0),
			CheckpointEvery: 1,
			RollbackCML:     1, // any contamination triggers a rollback
		})
		if err := prot.Run(); err != nil {
			continue
		}
		if prot.Rollbacks() == 0 {
			continue // contamination stayed within tolerance
		}
		if got := prot.Outputs()[0]; got != golden.Outputs()[0] {
			t.Errorf("fault %v: rollback did not recover: got %v, want %v",
				plan.Faults[0], got, golden.Outputs()[0])
			continue
		}
		// Re-executed work must cost cycles.
		if prot.Cycles() <= golden.Cycles() {
			t.Errorf("fault %v: no re-execution cost: %d <= %d",
				plan.Faults[0], prot.Cycles(), golden.Cycles())
		}
		// History is preserved even though the state was cleaned.
		if !prot.Table().Ever() {
			t.Error("rollback erased contamination history")
		}
		recovered++
	}
	if recovered == 0 {
		t.Fatal("no corrupting fault found to exercise rollback")
	}
}

func TestCheckpointDisabledByDefault(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(5))
	v := New(inst, Config{})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Rollbacks() != 0 {
		t.Error("checkpointing active without configuration")
	}
}

func TestCheckpointFaultFreeIsHarmless(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(10))
	plain := New(inst, Config{})
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	ck := New(inst, Config{CheckpointEvery: 2, RollbackCML: 4})
	if err := ck.Run(); err != nil {
		t.Fatal(err)
	}
	if ck.Rollbacks() != 0 {
		t.Errorf("fault-free run rolled back %d times", ck.Rollbacks())
	}
	if ck.Outputs()[0] != plain.Outputs()[0] {
		t.Errorf("checkpointing changed the result: %v vs %v",
			ck.Outputs()[0], plain.Outputs()[0])
	}
	if ck.Cycles() != plain.Cycles() {
		t.Errorf("checkpointing changed cycle accounting: %d vs %d",
			ck.Cycles(), plain.Cycles())
	}
}

func TestCheckpointIntervalRespected(t *testing.T) {
	// With a high threshold nothing rolls back, but snapshots keep being
	// taken; nothing should corrupt determinism.
	inst := instrumentT(t, buildTickedAccum(9))
	a := New(inst, Config{CheckpointEvery: 3, RollbackCML: 1 << 30})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	b := New(inst, Config{})
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Outputs()[0] != b.Outputs()[0] {
		t.Error("snapshot-only run diverged")
	}
}

// rollbackLine condenses every observable a checkpoint rollback may touch
// — outputs, cycle and site counters, iterations, the rollback count, the
// contamination table's final and historical state, and the recorder's
// CML series — into one line.
func rollbackLine(k int, v *VM, rec *trace.Recorder, err error) string {
	rec.Finish(v.Cycles(), v.Table().Len())
	out := make([]uint64, len(v.Outputs()))
	for i, o := range v.Outputs() {
		out[i] = math.Float64bits(o)
	}
	return fmt.Sprintf("%d out=%x cyc=%d sites=%d it=%d rb=%d peak=%d len=%d ever=%t pts=%v err=%v\n",
		k, out, v.Cycles(), v.Sites(), v.Iterations(), v.Rollbacks(),
		v.Table().Peak(), v.Table().Len(), v.Table().Ever(), rec.Points(), err)
}

// TestRollbackPinned pins checkpoint/rollback behaviour exactly: 40
// sampled five-fault plans under each checkpoint interval and rollback threshold,
// condensed into one digest per configuration. The same digest must come
// out of both interpreters, and of fresh VMs as well as VMs threaded
// through one pooled State; that State must then still serve a snapshot
// fork (falling back to a full copy, since its memory last equalled a
// checkpoint, not the snapshot) that matches a fork on a fresh VM.
func TestRollbackPinned(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(12))
	golden := New(inst, Config{})
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	sites := golden.Sites()
	snap, recSnap := snapAt(t, inst, 5, 0)
	pins := []struct {
		every     int64
		cml       int
		rollbacks int
		digest    string
	}{
		{1, 1, 25, "5ed5410a8cf8f81234be6c0ab9932b782095e715178f3035f8aac00bd3131640"},
		{1, 4, 16, "60d62cd8677c9bde0ba86c00f32d81c544df50690ef2faa0955b3ab97e9a1546"},
		{3, 1, 134, "7a49c1118d331a7644baee325ab754c47130d846c06180d64355a73bd8417437"},
		{3, 4, 126, "ac24cf1cc4b5bb0b6bf26800cc2dd2593e3f673be0fff7749e8cce523caba7f1"},
	}
	for _, p := range pins {
		for _, leg := range []struct{ full, pooled bool }{
			{false, false}, {true, false}, {false, true}, {true, true},
		} {
			pooled := leg.pooled
			var st *State
			if pooled {
				st = NewState()
			}
			h := sha256.New()
			rollbacks, switches := 0, uint64(0)
			for k := 0; k < 40; k++ {
				// Five faults a few dozen sites apart, so the CML can
				// cross the higher rollback threshold too.
				var plan inject.Plan
				for j := 0; j < 5; j++ {
					plan.Faults = append(plan.Faults, inject.Fault{
						Site: uint64(k)*sites/40 + uint64(j)*sites/100,
						Bit:  uint(3 + (k*13+j*7)%61),
					})
				}
				rec := &trace.Recorder{}
				v := New(inst, Config{
					Injector:        inject.NewRankInjector(plan, 0),
					Tracer:          rec,
					CheckpointEvery: p.every,
					RollbackCML:     p.cml,
					State:           st,
					CycleLimit:      4 * golden.Cycles(),
					FullInterp:      leg.full,
				})
				err := v.Run()
				io.WriteString(h, rollbackLine(k, v, rec, err))
				rollbacks += v.Rollbacks()
				switches += v.ModeSwitches()
				if st != nil {
					st.Reclaim(v)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != p.digest || rollbacks != p.rollbacks {
				t.Errorf("every=%d cml=%d full=%v pooled=%v: digest %s rollbacks %d, want %s %d",
					p.every, p.cml, leg.full, pooled, got, rollbacks, p.digest, p.rollbacks)
			}
			if (switches == 0) != leg.full {
				t.Errorf("every=%d cml=%d full=%v: %d interpreter mode switches", p.every, p.cml, leg.full, switches)
			}
			if st == nil {
				continue
			}
			plan := inject.Plan{Faults: []inject.Fault{{Site: snap.Sites() + 3, Bit: 51}}}
			want := runForked(t, inst, plan, snap, recSnap)
			rec := &trace.Recorder{}
			rec.RestoreSnap(recSnap, 0, 0)
			v := New(inst, Config{
				Tracer: rec, Injector: inject.NewRankInjector(plan, 0),
				State: st, ForkRestore: true,
			})
			if rs := v.RestoreSnap(snap); rs.Delta {
				t.Errorf("every=%d cml=%d: fork after checkpointed runs trusted a delta base: %+v", p.every, p.cml, rs)
			}
			if got := observeRun(v, rec, v.Resume()); !reflect.DeepEqual(got, want) {
				t.Errorf("every=%d cml=%d: fork on pooled State diverged:\n got %+v\nwant %+v", p.every, p.cml, got, want)
			}
		}
	}
}

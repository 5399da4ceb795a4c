package vm

// In-VM checkpoint/rollback makes the paper's recovery story executable:
// the VM snapshots its complete execution state at timestep boundaries
// (IntrinCheckpointT), and — playing the role of a fault detector with a
// one-timestep granularity — rolls back to the previous snapshot when the
// contamination table exceeds a threshold. Because the injector's dynamic
// site pointer is deliberately NOT restored, the re-executed region runs
// fault-free, which is exactly the transient-fault semantics the paper's
// rollback targets: the redone work costs cycles (a PEX-shaped signature)
// but the corrupted state is gone.
//
// Checkpoints are ordinary vm.Snapshots captured into one VM-owned buffer,
// and a rollback reuses the snapshot-fork restore body, so its memory
// restore takes the delta path (only blocks dirtied since the checkpoint
// are copied back) and the interpreter mode recorded at capture carries
// over.
//
// The detector here is an oracle (it reads the contamination table, which
// a production system does not have); the paper's §5 models exist
// precisely to estimate this quantity from FPS instead.
//
// Limitations: checkpointing is per-process — rolling back one rank of an
// MPI job would break message lockstep, so this facility is intended for
// single-process runs (coordinated distributed checkpointing is out of
// scope). The naive-taint ablation state is not snapshotted.

// Rollbacks reports how many checkpoint restorations happened.
func (v *VM) Rollbacks() int { return v.rollbacks }

// rollback rewinds the VM to its last checkpoint. Application cycles are
// NOT rewound: re-executed work costs time, exactly as a real rollback
// does. Neither are the injector's site counter and the injection-cycle
// list, so a transient fault does not re-fire during replay. The
// contamination happened even though it was undone: the table keeps its
// historical peak and ever-contaminated flag.
func (v *VM) rollback() {
	peak, ever := v.table.Peak(), v.table.Ever()
	v.restore(v.ckpt)
	v.table.CarryHistory(peak, ever)
	v.rollbacks++
	v.restored = true
	if v.cfg.Tracer != nil {
		v.cfg.Tracer.OnCMLChange(v.cycles, v.table.Len())
	}
}

// checkpointTick runs the rollback policy and snapshotting at a timestep
// boundary. Returns true when execution state was replaced and the
// interpreter must refetch its frame.
func (v *VM) checkpointTick() bool {
	if v.cfg.CheckpointEvery <= 0 {
		return false
	}
	if v.cfg.RollbackCML > 0 && v.ckpt != nil && v.table.Len() >= v.cfg.RollbackCML {
		v.rollback()
		return true
	}
	if v.ticks%v.cfg.CheckpointEvery == 0 {
		v.ckpt = v.Snapshot(v.ckpt)
	}
	return false
}

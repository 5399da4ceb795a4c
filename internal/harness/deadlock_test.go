package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/apps"
)

// TestDeadlockShardPinned pins the bytes of an AMG shard whose experiment
// 1458 (rank 3, site 5138, bit 1) deadlocks every rank. The digest was
// recorded when such runs still ended on a 60 s wall-clock timeout; ending
// them the moment the last rank blocks must not change a byte.
func TestDeadlockShardPinned(t *testing.T) {
	a := apps.NewAMG()
	cfg := CampaignConfig{
		App:       a,
		Params:    a.TestParams(),
		Sampling:  Sampling{Runs: 3000, Seed: 2015},
		Execution: Execution{Workers: 2, SampleEvery: 256},
	}
	part, err := RunShard(cfg, ShardSpec{Index: 0, Shards: 1, From: 1440, To: 1472})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(part)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	const want = "db61cdd7e1ec5cfb8e3a454925e44a19ed4439edb83d70d157afa64e3f5497d0"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("partial digest = %s, want %s", got, want)
	}
}

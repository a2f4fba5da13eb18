package benchkit

import (
	"testing"
	"time"
)

// Every phase of a split run is measured by the one harness, so the
// post-split record carries the commit-bytes and write-amplification
// fields a plain run does, computed over that phase alone.
func TestSplitRecordsCarryCommitBytes(t *testing.T) {
	res, err := RunSplitLoad(LoadSpec{
		Clients:      8,
		OpsPerClient: 40,
		Keys:         2000,
		Dist:         "zipf",
		ZipfS:        1.3,
		MaxDelay:     time.Millisecond,
		Shards:       2,
		PoolDir:      t.TempDir(),
		EpochLog:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.JSON()
	if len(recs) != 2 || recs[1].Phase != "post-split" {
		t.Fatalf("records %+v, want pre-split then post-split", recs)
	}
	post := recs[1]
	if post.CommitMeanBytes <= 0 || post.WriteAmplification <= 0 {
		t.Fatalf("post-split commit_mean_bytes %v, write_amplification %v; want both > 0",
			post.CommitMeanBytes, post.WriteAmplification)
	}
	if len(res.Post.Metrics) == 0 {
		t.Fatal("post-split result carries no metrics")
	}
	if !post.Split.CrashVerified {
		t.Fatalf("crash check lost %d keys", post.Split.LostKeys)
	}
}

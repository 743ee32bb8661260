package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/stagecache"
)

// flakyReplica is an in-memory replica that starts failing every operation
// after failAfter successful ones — an objstore node crashing mid-run.
type flakyReplica struct {
	mu        sync.Mutex
	objs      map[string][]byte
	ops       int
	failAfter int // <0: never fail
}

func (r *flakyReplica) broken() bool {
	return r.failAfter >= 0 && r.ops > r.failAfter
}

func (r *flakyReplica) Put(key string, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if r.broken() {
		return errors.New("replica down")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	r.objs[key] = cp
	return nil
}

func (r *flakyReplica) Get(key string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if r.broken() {
		return nil, errors.New("replica down")
	}
	data, ok := r.objs[key]
	if !ok {
		return nil, errors.New("no such key")
	}
	out := bufpool.Get(len(data))
	copy(out, data)
	return out, nil
}

// runWithCache executes one single-cluster run at site 1 pulling half the
// dataset across sites through the given cache.
func runWithCache(t *testing.T, cache *stagecache.Cache) uint64 {
	t.Helper()
	ix, src, want := buildDataset(t, 4000, 1000, 100)
	h := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1), 1)
	obj, _, err := h.run(AgentConfig{
		Site:    1,
		Name:    "cloud",
		Cores:   4,
		Sources: map[int]chunk.Source{0: src, 1: src},
		Cache:   cache,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}
	return want
}

func TestClusterWithStageCache(t *testing.T) {
	rep := &flakyReplica{objs: make(map[string][]byte), failAfter: -1}
	cache := stagecache.New(stagecache.Config{
		CapacityBytes: 8 << 10, // a couple of chunks: force replica traffic
		Replica:       rep,
		SpillDepth:    64,
		Logf:          t.Logf,
	}, nil)
	defer cache.Close()
	runWithCache(t, cache)

	// Every remote chunk crossed the WAN once and must land in the replica
	// (spilled by a read-through or pushed by the pre-stager).
	remote := int64(2000 * 4) // site-0 half of the dataset
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && cache.Snapshot().BytesStaged < remote {
		time.Sleep(time.Millisecond)
	}
	if s := cache.Snapshot(); s.BytesStaged < remote {
		t.Errorf("staged %d bytes, want >= %d", s.BytesStaged, remote)
	}
}

func TestClusterStageCacheReplicaCrash(t *testing.T) {
	// The replica dies after a handful of operations mid-run: the workers
	// must fall back to the origin source and still produce the exact sum.
	rep := &flakyReplica{objs: make(map[string][]byte), failAfter: 5}
	cache := stagecache.New(stagecache.Config{
		CapacityBytes: 8 << 10,
		Replica:       rep,
		Logf:          t.Logf,
	}, nil)
	defer cache.Close()
	runWithCache(t, cache)
}

func TestClusterStageCacheReplicaDeadFromStart(t *testing.T) {
	rep := &flakyReplica{objs: make(map[string][]byte), failAfter: 0}
	cache := stagecache.New(stagecache.Config{Replica: rep, Logf: t.Logf}, nil)
	defer cache.Close()
	runWithCache(t, cache)
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/core"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/shardedstore"
)

// The stack under test is what
//
//	provd -store DIR -durability group -shards 4 -cache -checkpoint-every 1000
//
// assembles, served on a loopback listener.
const (
	numShards       = 4
	checkpointEvery = 1000
)

func stackOptions(dir string, dur store.Durability) core.Options {
	return core.Options{
		StoreDir:           dir,
		Shards:             numShards,
		Durability:         dur,
		EnableClosureCache: true,
		CheckpointEvery:    checkpointEvery,
	}
}

// stack is one open serving stack.
type stack struct {
	dir    string
	st     store.Store // what collab.Repository holds
	cache  *closurecache.Cache
	mgr    *standing.Manager
	repo   *collab.Repository
	srv    *http.Server
	served chan struct{} // closed when Serve has returned
	base   string
	close  func() error // closes the store stack
	tr     *tracer      // nil in the untraced run

	// Set-up phases (traced run only; the untraced run opens through core
	// and times the whole).
	openS, cacheOpenS time.Duration
}

// openStack opens the stack over dir. With tr it composes the same
// constructors by hand with the timing shims in place; without, it opens
// the store through core exactly as provd does.
func openStack(dir string, tr *tracer) (*stack, error) {
	s := &stack{dir: dir, tr: tr}
	var st store.Store
	if tr == nil {
		top, closer, err := core.OpenPersistentStore(stackOptions(dir, store.DurabilityGroup))
		if err != nil {
			return nil, err
		}
		st, s.close = top, closer
		s.cache = top.(*closurecache.Cache)
	} else {
		// The options core.OpenPersistentStore passes when the cache is on:
		// the cache drives run-count checkpoints, so the file layer gets none.
		t0 := time.Now()
		r, err := shardedstore.OpenWith(dir, numShards, store.FileOptions{Durability: store.DurabilityGroup})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		below := newRouterShim(r, tr)
		s.cache = closurecache.New(below, closurecache.Options{SnapshotDir: dir, CheckpointEvery: checkpointEvery})
		s.openS, s.cacheOpenS = t1.Sub(t0), time.Since(t1)
		st, s.close = newLayerShim(s.cache, belowTap, tr), s.cache.Close
	}
	// provd: the standing tap sits on top of the store stack.
	s.mgr = standing.NewManager(st, standing.Options{})
	var top store.Store = standing.NewTap(st, s.mgr)
	if tr != nil {
		top = newLayerShim(top.(*standing.Tap), belowCollab, tr)
	}
	s.repo = collab.NewRepository(top)
	for p := 0; p < numProjects; p++ {
		if err := s.repo.Publish(Workflow(p), fmt.Sprintf("owner-%d", p%8), "generated project pipeline"); err != nil {
			s.close()
			return nil, err
		}
	}
	var h http.Handler = collab.NewHandlerWith(s.repo, collab.HandlerOptions{
		Standing:    s.mgr,
		SlowRequest: time.Second, // provd's default
		Node: collab.NodeInfo{
			Role: api.RoleStandalone, Shards: numShards, Cache: true, Start: time.Now(),
			StoreDir: dir, Durability: store.DurabilityGroup.String(),
			Checkpoint: fmt.Sprintf("every %d runs", checkpointEvery),
		},
	})
	if tr != nil {
		h = tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// shutdown stops the server (waiting for in-flight requests) and closes
// the store stack.
func (s *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

package main

import (
	"fmt"

	"sherman"
	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/transport/tcp"
)

// memoryServers is the smallest count that keeps chunk striping, per-server
// mux connections and cross-server ReadMulti fan-out alive.
const memoryServers = 2

// system is one set-up deployment with its tree bulkloaded and its sessions
// open: through the public API for the untraced run, or through core over
// the tracing backend for the traced run. Exactly one of tree and ctree is
// set.
type system struct {
	spec    spec
	srv     *servers // nil on the simulator
	clients []client

	cl   *sherman.Cluster
	tree *sherman.Tree

	tr    *trace
	be    core.Backend // undecorated; its concrete type is tcpc or simc
	tcpc  *tcp.Cluster
	simc  *cluster.Cluster
	ctree *core.Tree
}

// setUp is what setup_s times: launch the servers (pre-built binary),
// connect, create the tree, bulkload, open the sessions.
func setUp(sp spec, traced bool, kvs []layout.KV) (*system, error) {
	s := &system{spec: sp}
	if err := s.build(traced, kvs); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) build(traced bool, kvs []layout.KV) (err error) {
	sp := s.spec
	var endpoints []string
	if sp.fabric == fabricTCP {
		if s.srv, err = launch(memoryServers); err != nil {
			return err
		}
		endpoints = s.srv.endpoints
	}
	if traced {
		return s.buildCore(endpoints, kvs)
	}
	s.cl, err = sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:  memoryServers,
		ComputeServers: sp.sessions,
		Transport:      sp.fabric,
		Endpoints:      endpoints,
	})
	if err != nil {
		return err
	}
	opts := sherman.DefaultTreeOptions()
	opts.CacheBytes = sp.cacheBytes
	if s.tree, err = s.cl.CreateTree(opts); err != nil {
		return err
	}
	if err = s.tree.Bulkload(kvs); err != nil {
		return err
	}
	for cs := 0; cs < sp.sessions; cs++ {
		sess, err := s.tree.SessionAt(cs, sherman.PipelineDepth(sp.depth))
		if err != nil {
			return err
		}
		s.clients = append(s.clients, &sessionClient{s: sess})
	}
	return nil
}

// buildCore builds the same deployment the way the sherman package does
// internally, with the tracing decorator between core and the backend.
func (s *system) buildCore(endpoints []string, kvs []layout.KV) error {
	if s.spec.fabric == fabricTCP {
		tc, err := tcp.NewCluster(endpoints, s.spec.sessions, tcp.Options{})
		if err != nil {
			return err
		}
		s.tcpc, s.be = tc, tc
	} else {
		s.simc = cluster.New(cluster.Config{NumMS: memoryServers, NumCS: s.spec.sessions})
		s.be = s.simc
	}
	s.tr = &trace{}
	cfg := core.ShermanConfig() // what sherman.DefaultTreeOptions maps to
	cfg.CacheBytes = s.spec.cacheBytes
	s.ctree = core.New(&tracedBackend{Backend: s.be, tr: s.tr}, cfg)
	s.ctree.Bulkload(kvs)
	for cs := 0; cs < s.spec.sessions; cs++ {
		s.clients = append(s.clients, newCoreClient(s.ctree, cs, cs+1, s.spec.depth))
	}
	return nil
}

// close drops the connections and ends the servers, waiting for each.
func (s *system) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	if s.tcpc != nil {
		s.tcpc.Close()
	}
	if s.srv != nil {
		s.srv.stop()
	}
}

// treeStats walks the tree; no session may be writing.
func (s *system) treeStats() core.TreeStats {
	if s.ctree != nil {
		return s.ctree.Stats()
	}
	st := s.tree.Stats()
	return core.TreeStats{Entries: st.Entries, BytesUsed: st.BytesUsed, LeafFill: st.LeafFill}
}

func (s *system) validate() error {
	if s.ctree != nil {
		return s.ctree.Validate()
	}
	return s.tree.Validate()
}

// checkAfter applies the whole-tree invariants once the window is over:
// Validate is clean and the tree holds exactly the bulkloaded keys plus the
// distinct new keys the sessions put.
func (s *system) checkAfter(st core.TreeStats, oracles []*oracle) error {
	if err := s.validate(); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	if want := int(loadedKeys()) + freshKeys(oracles); st.Entries != want {
		return fmt.Errorf("tree holds %d entries, want %d (loaded + distinct new keys put)", st.Entries, want)
	}
	return nil
}

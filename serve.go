package lix

import (
	"net/http"

	"github.com/lix-go/lix/internal/serve"
)

// This file re-exports the pipelined TCP serving front-end
// (internal/serve) and its wire protocol surface. The server speaks a
// length-prefixed binary protocol (DESIGN.md §7) and turns pipelined
// request bursts into single batch calls on the underlying stack, so a
// 256-key pipelined MGET costs one shard fan-out and a pipelined write
// burst commits as one WAL frame group.

// ServeStore is the minimal index surface the server needs. *Stack
// satisfies it, as does any MutableIndex.
type ServeStore = serve.Store

// ServeConfig configures a Server. The zero value listens on an
// ephemeral port with production defaults.
type ServeConfig = serve.Config

// Server is a pipelined TCP front-end over a ServeStore.
type Server = serve.Server

// NewServer returns an unstarted server over store. Call Start to begin
// accepting and Shutdown to drain.
//
//	stack, _ := lix.NewStack(recs, lix.StackConfig{Shards: 8})
//	srv := lix.NewServer(stack, lix.ServeConfig{Addr: ":7070", Metrics: m, CloseStore: true})
//	if err := srv.Start(); err != nil { ... }
//	defer srv.Shutdown()
func NewServer(store ServeStore, cfg ServeConfig) *Server {
	return serve.New(store, cfg)
}

// AdminConfig assembles the live admin HTTP plane: /metrics, /healthz,
// /readyz, /events, /topk and /debug/pprof/*.
type AdminConfig = serve.AdminConfig

// NewAdminHandler returns the admin-plane handler for cfg. Typical
// wiring alongside a Server:
//
//	h := lix.NewAdminHandler(lix.AdminConfig{
//		Metrics: []*lix.Metrics{m},
//		Tracer:  stack.Tracer(),
//		Ready:   func() bool { return !srv.Draining() && stack.Err() == nil },
//	})
//	go http.ListenAndServe(adminAddr, h)
func NewAdminHandler(cfg AdminConfig) http.Handler {
	return serve.NewAdminHandler(cfg)
}

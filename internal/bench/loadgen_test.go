package bench

import (
	"io"
	"testing"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/serve"
)

// TestRunLoadgenSmoke drives the wire client against an in-process server
// for a moment and checks the plumbing: ops flow, no protocol errors, and
// the one-row table renders.
func TestRunLoadgenSmoke(t *testing.T) {
	stack, err := lix.NewStack(nil, lix.StackConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(stack, serve.Config{ErrorLog: io.Discard, CloseStore: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	cfg := Config{N: 10_000, Seed: 7, Workers: 2, Pipeline: 8, Duration: 250 * time.Millisecond}
	ops, errs, elapsed, err := wireLoad(srv.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ops == 0 || ops%uint64(cfg.Pipeline) != 0 {
		t.Fatalf("%d replies, want a positive whole number of groups of %d", ops, cfg.Pipeline)
	}
	if errs != 0 {
		t.Fatalf("%d protocol errors during smoke run", errs)
	}
	if elapsed < cfg.Duration {
		t.Fatalf("ran %v, want at least the %v send window", elapsed, cfg.Duration)
	}

	tables, err := RunLoadgen(srv.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 1 {
		t.Fatalf("tables = %+v, want one single-row table", tables)
	}
	if _, err := RunLoadgen("", cfg); err == nil {
		t.Fatal("empty address accepted")
	}
}

package pairleak

import (
	"testing"

	"dafsio/internal/analysis/callgraph"
)

// TestKeysResolveInModule guards the pass's callee tables against drift: a
// renamed or moved acquire function would otherwise leave its key matching
// nothing, and pairleak would silently stop checking that resource. Every
// key must name a function declared in the real module.
func TestKeysResolveInModule(t *testing.T) {
	g, err := callgraph.Module()
	if err != nil {
		t.Fatalf("loading module graph: %v", err)
	}
	keys := []string{resAcquireKey, resReleaseKey}
	for k := range acquireKeys {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if g.Nodes[k] == nil {
			t.Errorf("pairleak key %q names no function declared in the module", k)
		}
	}
}

package engine_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
)

// TestEngineIsLifecycleOnly pins the exported method set of *Engine to the
// lifecycle and telemetry surface. Costing, planning, sweeps, and
// hypothetical structures belong on View (one pinned generation); a
// pass-through on Engine would let a caller read two generations in one
// operation.
func TestEngineIsLifecycleOnly(t *testing.T) {
	want := []string{
		"CacheStats", "EvictPrefix", "Invalidate", "Pin", "PinBackend", "Schema",
		"SetBackend", "SetBaseConfig", "SetJoinControl", "SetStats", "SetWorkers", "Workers",
	}
	typ := reflect.TypeOf(&engine.Engine{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*engine.Engine exports %v\nwant %v", got, want)
	}
}

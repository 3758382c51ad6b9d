package obs

import (
	"reflect"
	"testing"
)

func TestMergeFootprintsSumsAndSorts(t *testing.T) {
	got := MergeFootprints([]Footprint{
		{Subsystem: "lazy", Bytes: 100, Items: 3},
		{Subsystem: "gossip", Bytes: 40, Items: 1},
		{Subsystem: "lazy", Bytes: 50, Items: 2},
		{Subsystem: "gossip", Bytes: 10, Items: 4},
	})
	want := []Footprint{
		{Subsystem: "gossip", Bytes: 50, Items: 5},
		{Subsystem: "lazy", Bytes: 150, Items: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeFootprints = %+v, want %+v", got, want)
	}
}

func TestFootprintBytesMap(t *testing.T) {
	m := FootprintBytesMap([]Footprint{
		{Subsystem: "trace", Bytes: 7},
		{Subsystem: "trace", Bytes: 3},
		{Subsystem: "emunet", Bytes: 5},
	})
	if m["trace"] != 10 || m["emunet"] != 5 || len(m) != 2 {
		t.Fatalf("FootprintBytesMap = %v", m)
	}
}

func TestPublishFootprints(t *testing.T) {
	// Nil registry: must be a no-op, not a panic.
	PublishFootprints(nil, "sim", []Footprint{{Subsystem: "lazy", Bytes: 1}})

	reg := NewRegistry()
	PublishFootprints(reg, "sim", []Footprint{
		{Subsystem: "lazy", Bytes: 123, Items: 4},
		{Subsystem: "emunet", Bytes: 456, Items: 7},
	})
	for _, tc := range []struct {
		name, sub string
		want      float64
	}{
		{"sim_footprint_bytes", "lazy", 123},
		{"sim_footprint_items", "lazy", 4},
		{"sim_footprint_bytes", "emunet", 456},
		{"sim_footprint_items", "emunet", 7},
	} {
		v, ok := Scalars(reg.Snapshot())[tc.name+`{subsystem="`+tc.sub+`"}`]
		if !ok || v != tc.want {
			t.Errorf("%s{subsystem=%q} = %v (ok=%v), want %v", tc.name, tc.sub, v, ok, tc.want)
		}
	}

	// Gauges overwrite: a second walk replaces, never accumulates.
	PublishFootprints(reg, "sim", []Footprint{{Subsystem: "lazy", Bytes: 10, Items: 1}})
	if v := Scalars(reg.Snapshot())[`sim_footprint_bytes{subsystem="lazy"}`]; v != 10 {
		t.Errorf("after second walk, sim_footprint_bytes{lazy} = %v, want 10", v)
	}
}

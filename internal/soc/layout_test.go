package soc

import (
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/icu"
)

// hostLine is the host cache line size the simulator's per-cycle state is
// laid out for.
const hostLine = 64

// TestHotStateOwnsCacheLines pins the layout of the state a SoC writes
// every cycle, and of the page tables every memory access reads: every
// object of the types below, the bus's per-master request and statistics
// arrays, each cache's ways and line data, and each memory's page tables
// and dirty-page map, starts on a 64-byte line and spans whole lines, so
// no other object shares a line with it. Two arenas stepped on two CPUs
// otherwise slow each other down through lines they share, depending
// only on the order their objects were allocated in.
func TestHotStateOwnsCacheLines(t *testing.T) {
	owners := map[reflect.Type]bool{}
	for _, v := range []any{
		bus.Bus{}, bus.Replayer{}, cache.Bypass{}, cache.Ctrl{}, cache.TCMClient{},
		cache.Cache{}, icu.ICU{}, SoC{}, CoreUnit{}, router{},
	} {
		owners[reflect.TypeOf(v)] = true
	}
	arrays := map[string]bool{"[]bus.Stats": true, "[]bus.request": true, "[]cache.line": true, "mem.pageTable": true, "mem.dirtyMap": true}
	found := map[string]int{}
	check := func(what string, addr, size uintptr) {
		found[what]++
		if addr%hostLine != 0 || size%hostLine != 0 {
			t.Errorf("%s at %#x, %d bytes: shares a cache line with its neighbours", what, addr, size)
		}
	}

	cached := DefaultConfig()
	cached.Cores[0] = CoreSetup{CPU: cpu.CoreA(), Active: true, CachesOn: true, WriteAlloc: true}
	cached.Replay = [][]bus.TrafficEvent{{{Cycle: 1, Addr: 0x100, N: 4}}, nil}
	for _, s := range []*SoC{New(DefaultConfig()), New(cached)} {
		walkObjects(reflect.ValueOf(s), map[uintptr]bool{}, map[reflect.Type]bool{}, func(v reflect.Value) {
			switch t := v.Type(); {
			case t.Kind() == reflect.Pointer && owners[t.Elem()]:
				check(t.Elem().String(), v.Pointer(), t.Elem().Size())
				if t.Elem() == reflect.TypeOf(cache.Cache{}) {
					// The line data is a plain []byte: check it by field.
					data := v.Elem().FieldByName("data")
					check("cache.Cache.data", data.Pointer(), uintptr(data.Cap()))
				}
			case t.Kind() == reflect.Slice && arrays[t.String()]:
				check(t.String(), v.Pointer(), uintptr(v.Cap())*t.Elem().Size())
			}
		})
	}
	for typ := range owners {
		if found[typ.String()] == 0 {
			t.Errorf("no %s in the built SoCs", typ)
		}
	}
	for name := range arrays {
		if found[name] == 0 {
			t.Errorf("no %s in the built SoCs", name)
		}
	}
}

// walkObjects calls visit on every non-nil pointer and slice reachable
// from v, each pointee once. It does not descend into values that hold no
// pointers; ptrs memoizes holdsPointers.
func walkObjects(v reflect.Value, seen map[uintptr]bool, ptrs map[reflect.Type]bool, visit func(reflect.Value)) {
	if !holdsPointers(v.Type(), ptrs) {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		visit(v)
		walkObjects(v.Elem(), seen, ptrs, visit)
	case reflect.Interface:
		if !v.IsNil() {
			walkObjects(v.Elem(), seen, ptrs, visit)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			walkObjects(v.Field(i), seen, ptrs, visit)
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		visit(v)
		fallthrough
	case reflect.Array:
		if holdsPointers(v.Type().Elem(), ptrs) {
			for i := range v.Len() {
				walkObjects(v.Index(i), seen, ptrs, visit)
			}
		}
	}
}

// holdsPointers reports whether a value of type t holds a pointer.
func holdsPointers(t reflect.Type, memo map[reflect.Type]bool) bool {
	if p, ok := memo[t]; ok {
		return p
	}
	p := false
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.String:
		p = true
	case reflect.Array:
		p = t.Len() > 0 && holdsPointers(t.Elem(), memo)
	case reflect.Struct:
		for i := range t.NumField() {
			p = p || holdsPointers(t.Field(i).Type, memo)
		}
	}
	memo[t] = p
	return p
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesSubtractsChildUnion(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "root", ID: 1, Start: ms(0), End: ms(100)},
		// Overlapping children cover 10..50 once, not twice.
		{Name: "a", ID: 2, Parent: 1, Start: ms(10), End: ms(30)},
		{Name: "a", ID: 3, Parent: 1, Start: ms(20), End: ms(50)},
		// A child running past its parent counts only inside it.
		{Name: "b", ID: 4, Parent: 1, Start: ms(90), End: ms(120)},
		// A grandchild is subtracted from its parent only.
		{Name: "c", ID: 5, Parent: 4, Start: ms(95), End: ms(105)},
		// Another root is independent.
		{Name: "root", ID: 6, Start: ms(200), End: ms(210)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": ms(100-40-10) + ms(10),
		"a":    ms(20 + 30),
		"b":    ms(30 - 10),
		"c":    ms(10),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if tot := totals(spans); tot["a"] != ms(50) || tot["root"] != ms(110) {
		t.Errorf("totals = %v", tot)
	}
}

func TestTracerRecordsAndWritesChrome(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin(0, 0, "x"); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	nilTracer.end(0)

	tr := newTracer()
	root := tr.begin(7, 0, "op")
	child := tr.begin(7, root, "layer")
	tr.end(child)
	tr.begin(7, root, "unfinished") // never ended: not in the snapshot
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Args["parent"] != root {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}

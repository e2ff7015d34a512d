package main

import (
	"bytes"
	"fmt"
	"testing"

	"serviceordering/internal/planner"
)

// testWindow is the window length the tests build request lists with.
const testWindow = 300

var builtLists = map[string]*requestList{}

// listFor builds (once per test binary) the request list of w for seed.
func listFor(t *testing.T, w workload, seed int64) *requestList {
	t.Helper()
	key := fmt.Sprintf("%s/%d", w.name, seed)
	if l, ok := builtLists[key]; ok {
		return l
	}
	l, err := buildList(w, seed, testWindow)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	builtLists[key] = l
	return l
}

// requestBytes is everything a request list sends, in order.
func requestBytes(l *requestList) []byte {
	var b bytes.Buffer
	for _, idx := range [][]int{l.prime, l.window} {
		for _, k := range idx {
			b.Write(l.entries[k].body)
			b.WriteByte('\n')
		}
		b.WriteString("--\n")
	}
	return b.Bytes()
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			again, err := buildList(w, 1, testWindow)
			if err != nil {
				t.Fatal(err)
			}
			one, other := requestBytes(listFor(t, w, 1)), requestBytes(listFor(t, w, 2))
			if !bytes.Equal(one, requestBytes(again)) {
				t.Error("two lists built from seed 1 differ")
			}
			if bytes.Equal(one, other) {
				t.Error("seeds 1 and 2 built the same list")
			}
			if l := listFor(t, w, 1); len(l.window) != testWindow {
				t.Errorf("window has %d requests, want %d", len(l.window), testWindow)
			}
		})
	}
}

func TestColdSearchRequestsAreFirstSight(t *testing.T) {
	w, _ := workloadByName("cold-search")
	l := listFor(t, w, 1)
	p := planner.New(planner.Config{})
	seen := make(map[planner.Signature]int)
	for i, e := range l.entries {
		sig, ok := p.SignatureFor(e.q)
		if !ok {
			t.Fatalf("entry %d has no signature", i)
		}
		if j, dup := seen[sig]; dup {
			t.Fatalf("entries %d and %d share canonical signature %s", j, i, sig)
		}
		seen[sig] = i
		if e.n < 10 || e.n > 17 {
			t.Errorf("entry %d has n=%d, outside [10, 17]", i, e.n)
		}
		proliferative := false
		for _, s := range e.q.Services {
			proliferative = proliferative || s.Selectivity > 1
		}
		if proliferative && e.n > maxProliferativeN {
			t.Errorf("entry %d (%s) is proliferative at n=%d", i, e.family, e.n)
		}
	}
	if got, want := len(l.entries), len(l.prime)+len(l.window); got != want {
		t.Errorf("%d entries for %d requests: some request repeats an entry", got, want)
	}
	accepted := 0
	for _, c := range l.draws {
		accepted += c.drawn - c.capped - c.repeated
	}
	if accepted != len(l.entries) {
		t.Errorf("draw counts account for %d accepted queries, the list has %d", accepted, len(l.entries))
	}
}

func TestExecuteEntriesShareServiceNames(t *testing.T) {
	w, _ := workloadByName("execute-adaptive")
	l := listFor(t, w, 1)
	names := make(map[string]int)
	for _, e := range l.entries {
		if e.n < 6 || e.n > 8 {
			t.Errorf("execute query has n=%d, outside [6, 8]", e.n)
		}
		for _, s := range e.q.Services {
			names[s.Name]++
		}
	}
	if names["ws0"] != len(l.entries) {
		t.Errorf("ws0 appears in %d of %d queries", names["ws0"], len(l.entries))
	}
}

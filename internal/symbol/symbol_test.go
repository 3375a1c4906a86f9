package symbol

import (
	"fmt"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"gretel/internal/trace"
)

func api(i int) trace.API {
	return trace.RESTAPI(trace.SvcNova, "GET", fmt.Sprintf("/v2.1/x/%d", i))
}

// encode assigns each API its rune, in order, as a fingerprint's
// Symbols are built.
func encode(tb *Table, apis []trace.API) string {
	runes := make([]rune, len(apis))
	for i, a := range apis {
		runes[i] = tb.Assign(a)
	}
	return string(runes)
}

func TestAssignStable(t *testing.T) {
	tb := NewTable()
	a := trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers")
	r1 := tb.Assign(a)
	r2 := tb.Assign(a)
	if r1 != r2 {
		t.Fatalf("re-assignment changed rune: %q then %q", r1, r2)
	}
	if r1 != Base {
		t.Fatalf("first rune = %#U, want %#U", r1, Base)
	}
}

func TestAssignDistinct(t *testing.T) {
	tb := NewTable()
	seen := map[rune]bool{}
	for i := 0; i < 643; i++ { // the paper's API count
		r := tb.Assign(api(i))
		if seen[r] {
			t.Fatalf("rune %#U assigned twice", r)
		}
		seen[r] = true
		if r < Base || r >= Max {
			t.Fatalf("rune %#U outside private-use area", r)
		}
	}
	if tb.Len() != 643 {
		t.Fatalf("Len() = %d, want 643", tb.Len())
	}
}

func TestLookupAndAPI(t *testing.T) {
	tb := NewTable()
	a := trace.RPCAPI(trace.SvcNovaCompute, "build_and_run_instance")
	if _, ok := tb.Lookup(a); ok {
		t.Fatal("Lookup found unassigned API")
	}
	r := tb.Assign(a)
	if got, ok := tb.Lookup(a); !ok || got != r {
		t.Fatalf("Lookup = %#U,%v", got, ok)
	}
	back, ok := tb.API(r)
	if !ok || back != a {
		t.Fatalf("API(%#U) = %+v,%v", r, back, ok)
	}
	if _, ok := tb.API(r + 1); ok {
		t.Fatal("API found unassigned rune")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tb := NewTable()
	apis := []trace.API{
		trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers"),
		trace.RESTAPI(trace.SvcGlance, "GET", "/v2/images/{id}"),
		trace.RPCAPI(trace.SvcNovaCompute, "build_and_run_instance"),
		trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers"), // repeat
	}
	s := encode(tb, apis)
	if utf8.RuneCountInString(s) != len(apis) {
		t.Fatalf("encoded %d runes, want %d", utf8.RuneCountInString(s), len(apis))
	}
	if !utf8.ValidString(s) {
		t.Fatal("encoded string is invalid UTF-8")
	}
	i := 0
	for _, r := range s {
		if back, ok := tb.API(r); !ok || back != apis[i] {
			t.Fatalf("round trip mismatch at %d: %v,%v != %v", i, back, ok, apis[i])
		}
		i++
	}
}

func TestDecodeUnassigned(t *testing.T) {
	tb := NewTable()
	if api, ok := tb.API(Base); ok {
		t.Fatalf("API of unassigned rune %#U = %v", Base, api)
	}
}

func TestAPIsOrdered(t *testing.T) {
	tb := NewTable()
	var want []trace.API
	for i := 0; i < 20; i++ {
		a := api(i)
		tb.Assign(a)
		want = append(want, a)
	}
	got := tb.APIs()
	if len(got) != len(want) {
		t.Fatalf("APIs() returned %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("APIs()[%d] = %v, want %v (assignment order)", i, got[i], want[i])
		}
	}
}

// Property: for any set of distinct APIs, encode/decode round-trips and
// every rune stays within the private-use area.
func TestQuickRoundTrip(t *testing.T) {
	f := func(paths []string) bool {
		tb := NewTable()
		apis := make([]trace.API, len(paths))
		for i, p := range paths {
			apis[i] = trace.RESTAPI(trace.SvcNova, "GET", p)
		}
		for i, r := range []rune(encode(tb, apis)) {
			if r < Base || r >= Max {
				return false
			}
			if back, ok := tb.API(r); !ok || back != apis[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

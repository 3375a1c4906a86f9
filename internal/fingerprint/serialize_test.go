package fingerprint

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"gretel/internal/trace"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	lib := NewLibrary()
	lib.AddAPIs("vm-create", "Compute", []trace.API{
		trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers"),
		trace.RPCAPI(trace.SvcNovaCompute, "build_and_run_instance"),
		trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/servers/{id}"),
	})
	lib.AddAPIs("image-upload", "Image", []trace.API{
		trace.RESTAPI(trace.SvcGlance, "POST", "/v2/images"),
		trace.RESTAPI(trace.SvcGlance, "PUT", "/v2/images/{id}/file"),
	})

	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d fingerprints", got.Len())
	}
	for _, name := range []string{"vm-create", "image-upload"} {
		a, b := lib.ByName(name), got.ByName(name)
		if b == nil || a.Category != b.Category || a.Len() != b.Len() {
			t.Fatalf("%s mismatch after load", name)
		}
		for i := range a.APIs {
			if a.APIs[i] != b.APIs[i] {
				t.Fatalf("%s API %d: %v vs %v", name, i, a.APIs[i], b.APIs[i])
			}
			if a.StateChange(i) != b.StateChange(i) {
				t.Fatalf("%s state flag %d differs", name, i)
			}
		}
	}
	// Posting lists rebuilt: candidates for the RPC API resolve.
	cands := got.CandidatesForAPI(trace.RPCAPI(trace.SvcNovaCompute, "build_and_run_instance"))
	if cands.Len() != 1 || cands.Name(0) != "vm-create" {
		t.Fatalf("candidates after load: %d", cands.Len())
	}
}

func TestSaveLoadFile(t *testing.T) {
	lib := NewLibrary()
	lib.AddAPIs("op", "Misc", []trace.API{trace.RESTAPI(trace.SvcSwift, "HEAD", "/v1/{id}")})
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := lib.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.ByName("op") == nil {
		t.Fatal("file round trip failed")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":9}`)); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"version":1,"fingerprints":[{"name":"x","category":"C","apis":[{"service":"nope","kind":"REST","method":"GET"}]}]}`)); err == nil {
		t.Fatal("unknown service accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"version":1,"fingerprints":[{"name":"x","category":"C","apis":[{"service":"nova","kind":"SOAP","method":"GET"}]}]}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

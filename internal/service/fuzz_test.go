// Native fuzz target for sweep-spec decoding: wsplitd decodes a SweepSpec
// from untrusted request bytes and validates it before anything is queued.
// Decoding plus Validate must never panic, and every spec Validate accepts
// must survive a JSON round trip unchanged and still validate — the job
// status echoes the spec back, so an accepted spec has to be stable under
// its own encoding. Seed corpora live in testdata/fuzz.
package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// decodeStrict decodes one spec the way wsplitd does: unknown fields are
// errors.
func decodeStrict(data []byte) (SweepSpec, error) {
	var spec SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func FuzzSweepSpec(f *testing.F) {
	// testdata/fuzz/FuzzSweepSpec holds a valid spec, an unknown field, a
	// negative size and an over-limit retry count; this adds a spec using
	// every field.
	f.Add([]byte(`{"gen":"leftregular","nu":64,"nv":256,"d":20,"algos":["det","rand"],"seed":3,"trials":4,"trial_timeout_ms":50,"retries":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeStrict(data)
		if err != nil || spec.Validate() != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", spec, err)
		}
		back, err := decodeStrict(out)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, spec)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec %s no longer validates: %v", out, err)
		}
	})
}

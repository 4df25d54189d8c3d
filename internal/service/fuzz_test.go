package service

import (
	"bytes"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes through the submit handler's strict
// spec decoding and validation. Neither may panic, and every accepted
// spec must have idempotent defaults and a stable content key: the
// cluster routes by that key and the cache stores artifacts under it.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"detect","case":"s35932-T200"}`,
		`{"kind":"lot","case":"s38417-T100","scale":0.04,"varsigma":0.08,"dies":3,"tester":"combined","tester_seed":9}`,
		`{"kind":"detect","bench":"INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n","infect":2,"clean":true}`,
		`{"kind":"detect","case":"s35932-T200","tenant":"t1","submit_token":"tok","timeout_sec":30,"workers":2}`,
		`{"kind":"detect","case":"s35932-T200","channel":"fused"}`,
		`{"kind":"detect","case":"s35932-T200","scale":-1}`,
		`{"kind":"scan"}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = spec.Validate()
		// Submit validates the defaulted spec.
		def := spec.withDefaults()
		if def.Validate() != nil {
			return
		}
		if again := def.withDefaults(); again != def {
			t.Fatalf("withDefaults not idempotent:\nonce:  %+v\ntwice: %+v", def, again)
		}
		key := spec.ContentKey()
		if key != def.ContentKey() || key != spec.ContentKey() {
			t.Fatalf("content key unstable for %+v", spec)
		}
	})
}

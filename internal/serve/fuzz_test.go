package serve

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"liquidarch/internal/progs"
)

// FuzzJobRequest feeds arbitrary bytes to the two job decoders the way
// the POST /v1/jobs and /v1/batch handlers do: decodeBody, then resolve
// (for a batch, expand and resolve each item). Each step must answer an
// error or a request the session can run, and nothing may panic.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"app":"arith","scale":"tiny","space":"dcache"}`,
		`{"app":"blastn","scale":"tiny"}`,
		`{"app":"arith","scale":"tiny","space":"dcache","w2":3,"sample_instructions":20000}`,
		`{"app":"arith","scale":"tiny","w1":1e308}`,
		`{"app":"arith","scale":"tiny","space":"dcache","class":"bulk","include_model":true,"workers":1}`,
		`{"app":"arith","scale":"tiny","space":"dcache","phases":true,"interval_instructions":10000}`,
		`{"app":"mix","scale":"tiny","space":"dcache","phases":true,"interval_instructions":20000,"replay":true,"online":true}`,
		`{"app":"mix","phases":true,"interval_instructions":1}`,
		`{"app":"mix","scale":"tiny","replay":true}`,
		`{"app":"nope"}`,
		`{"app":"arith","scale":"huge"}`,
		`{"app":"arith","space":"weird"}`,
		`{"app":"arith","class":"urgent"}`,
		`{"app":"arith","scale":"tiny","space":"dcache","weightings":[{"w1":100,"w2":1},{"w1":1,"w2":100}]}`,
		`{"app":"arith","scale":"tiny","apps":["arith","drr"],"spaces":["dcache","full"],"class":"bulk"}`,
		`{"app":"arith","scale":"tiny","apps":["arith","nope"]}`,
		`[]`,
		`{"app":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if decode(body, &req) == nil {
			if creq, err := resolve(req); err == nil {
				checkResolved(t, req)
				if _, ok := progs.ByName(creq.App); !ok {
					t.Fatalf("resolved an unknown app %q", creq.App)
				}
				if creq.Space == nil {
					t.Fatal("resolved no decision space")
				}
				if (creq.Replay || creq.Online) && creq.Phases == nil {
					t.Fatal("resolved replay or online without phases")
				}
			}
		}
		var batch BatchRequest
		if decode(body, &batch) != nil {
			return
		}
		items, err := batch.expand()
		if err != nil {
			return
		}
		if len(items) == 0 || len(items) > MaxBatchItems {
			t.Fatalf("batch expanded to %d items", len(items))
		}
		for _, item := range items {
			if _, err := resolve(item); err == nil {
				checkResolved(t, item)
			}
		}
	})
}

// decode runs body through the handlers' decodeBody.
func decode(body []byte, v any) error {
	r := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
	return decodeBody(httptest.NewRecorder(), r, v)
}

// checkResolved fails the fuzz run when resolve accepted a request the
// daemon bounds: an unknown class or an interval below the minimum.
func checkResolved(t *testing.T, req JobRequest) {
	t.Helper()
	if _, err := normalizeClass(req.Class); err != nil {
		t.Fatalf("resolved an unknown class %q", req.Class)
	}
	if n := req.IntervalInstructions; n != 0 && n < MinIntervalInstructions {
		t.Fatalf("resolved interval_instructions %d below the minimum", n)
	}
}

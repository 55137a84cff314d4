package control

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestResponseBytesPinned pins the control's exact wire answer. If this
// fails the control changed, which is a re-baseline (see control.go).
func TestResponseBytesPinned(t *testing.T) {
	const want = "{\"query_id\":1,\"selected\":[7],\"proposed\":[1,2,3,4,5,6,7,8,9,10]}\n"
	if ResponseBody != want {
		t.Fatalf("ResponseBody constant changed:\n got %q\nwant %q", ResponseBody, want)
	}
	h := Handler()
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/queries", strings.NewReader(RequestBody))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		body, _ := io.ReadAll(rec.Result().Body)
		if rec.Code != http.StatusOK || string(body) != want {
			t.Fatalf("request %d: status %d body %q, want 200 %q", i, rec.Code, body, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
	}
}

func TestRequestBodyPinned(t *testing.T) {
	const want = `{"consumer":7,"class":0,"n":1,"work":1,"wait":"allocation"}`
	if RequestBody != want {
		t.Fatalf("RequestBody constant changed: %q", RequestBody)
	}
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/queries", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", rec.Code)
	}
}

func TestSpinPinned(t *testing.T) {
	if spinRounds != 4096 {
		t.Fatalf("spinRounds = %d: the control's work changed", spinRounds)
	}
	if got := spin(8); got != spin(8) || got == 0 {
		t.Fatalf("spin not a pure non-zero function: %d", got)
	}
}

package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	msbfs "repro"
)

// FuzzServeQuery sends arbitrary JSON bodies to the four query endpoints
// of a small static graph through Server.ServeHTTP. Whatever the body, the
// status is one the API documents (200, 400, 404, 413, 429 or 504; never
// another 5xx), every other reply than 200 is an {"error": ...} body, and a
// 200 khop reply carries its count only, no visited key.
func FuzzServeQuery(f *testing.F) {
	reg := NewRegistry()
	if _, err := reg.Add("demo", msbfs.GenerateKronecker(8, 8, 7), false, Config{Workers: 1}); err != nil {
		f.Fatal(err)
	}
	s := New(reg, Config{})
	f.Cleanup(s.Close)
	paths := []string{"/bfs", "/closeness", "/reachability", "/khop"}
	const khop = 3
	f.Add(uint8(khop), `{"source":3,"hops":0}`)
	f.Add(uint8(khop), `{"source":3,"hops":-1}`)
	f.Add(uint8(khop), `{"source":3,"hops":2,"timeout_ms":1}`)
	f.Add(uint8(0), `{"source":0,"targets":[`+strings.Repeat("1,", 1024)+`1]}`)
	f.Add(uint8(0), `{"source":256,"targets":[0]}`)
	f.Add(uint8(0), `{"source":0,"targets":[-1]}`)
	f.Add(uint8(1), `{"graph":"demo","source":-1}`)
	f.Add(uint8(2), `{"source":0}`)
	f.Add(uint8(2), `{"source":0,"target":300}`)
	f.Add(uint8(1), `{"graph":"other","source":0}`)
	f.Fuzz(func(t *testing.T, path uint8, body string) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, paths[int(path)%len(paths)], strings.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d for %s %q: %s", w.Code, paths[int(path)%len(paths)], body, w.Body)
		}
		var reply map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatalf("status %d reply is not JSON: %v: %s", w.Code, err, w.Body)
		}
		if w.Code != http.StatusOK {
			if _, ok := reply["error"]; !ok || len(reply) != 1 {
				t.Fatalf("status %d reply is not {\"error\": ...}: %s", w.Code, w.Body)
			}
			return
		}
		if _, ok := reply["visited"]; ok && string(reply["kind"]) == `"khop"` {
			t.Fatalf("khop reply carries visited: %s", w.Body)
		}
	})
}

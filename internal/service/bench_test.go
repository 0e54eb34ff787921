package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServedWarmTable serves a warm fig5b through the handler, at
// the shape of the benchmark's served hot set (seven apps at P = 32,
// scale 1/4096, quick: 28 disk hits per table), and reports how many
// stored results each table decodes.
//
//	go test -run '^$' -bench ServedWarmTable ./internal/service
func BenchmarkServedWarmTable(b *testing.B) {
	s, err := New(Config{CacheDir: b.TempDir(), Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body, err := json.Marshal(ExperimentRequest{ID: "fig5b", Options: OptionsJSON{
		Procs: 32, Scale: 1.0 / 4096, Seed: 1, Quick: true,
		Apps: []string{"radix", "sample", "pray", "connect", "murphi", "nowsort", "radb"},
	}})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/experiment", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve() // computes the plan
	before := s.Stats().Stages["decode"].Count
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Stages["decode"].Count-before)/float64(b.N), "decodes/op")
}

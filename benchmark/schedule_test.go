package main

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	msbfs "repro"
)

// scheduleBytes serialises a request schedule (due time, then body) so two
// schedules can be compared byte for byte.
func scheduleBytes(dues []time.Duration, body func(i int) []byte) []byte {
	var buf bytes.Buffer
	for i, d := range dues {
		_ = binary.Write(&buf, binary.LittleEndian, int64(d))
		buf.Write(body(i))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// scheduleOf serialises everything a seed decides about a serve-ingest
// run: read bodies in pool order, then both arrival processes.
func scheduleOf(seed uint64) []byte {
	g := msbfs.GenerateKronecker(smokeScale, edgeFactor, seed)
	pool := buildPool(g, seed)
	total := 2 * time.Second
	reads := poissonDues(seed, seedArrivals, 240, total)
	postDues := poissonDues(seed, seedIngest, 40, total)
	posts := buildIngest(g.NumVertices(), seed, len(postDues))
	var out bytes.Buffer
	out.Write(scheduleBytes(reads, func(i int) []byte { return pool[i%len(pool)].body }))
	out.Write(scheduleBytes(postDues, func(i int) []byte { return posts[i].body }))
	return out.Bytes()
}

func TestSameSeedSameSchedule(t *testing.T) {
	a, b, c := scheduleOf(7), scheduleOf(7), scheduleOf(8)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different request schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("two seeds gave the same request schedule")
	}
}

func TestPoolHasEveryKindEqually(t *testing.T) {
	g := msbfs.GenerateKronecker(smokeScale, edgeFactor, 1)
	n := map[string]int{}
	for _, q := range buildPool(g, 1) {
		n[q.kind]++
	}
	for _, k := range kinds {
		if n[k] != poolSize/len(kinds) {
			t.Errorf("%d %s queries in the pool, want %d", n[k], k, poolSize/len(kinds))
		}
	}
}

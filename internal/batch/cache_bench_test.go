package batch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/twin"
)

// BenchmarkDiskCachePut times one write of a fresh key to a bounded
// DiskCache, the write the runner makes for every computed cell, in two
// settings: alone, and while another goroutine appends a line to a file
// in the same directory and fsyncs it every 20 ms, as ohmserve's job
// journal does on every submit and finish. On ext4 the second setting is
// the one a serving process lives in: the cache's metadata operations
// (CreateTemp, MkdirAll, Rename) then wait on the filesystem's journal
// commits.
func BenchmarkDiskCachePut(b *testing.B) {
	cfg := config.Default(config.OhmBW, config.Planar)
	w, _ := config.WorkloadByName("sssp")
	rep := twin.Estimate(&cfg, w) // a report of the usual size
	for _, bc := range []struct {
		name    string
		journal bool
	}{{"alone", false}, {"journal-fsync", true}} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			c, err := NewBoundedDiskCache(filepath.Join(dir, "cache"), 256<<20)
			if err != nil {
				b.Fatal(err)
			}
			if bc.journal {
				defer appendAndSync(b, filepath.Join(dir, "journal.jsonl"), 20*time.Millisecond)()
			}
			// A serving cache has long had its 256 shard directories.
			for i := 0; i < 256; i++ {
				if err := os.Mkdir(filepath.Join(c.Dir, fmt.Sprintf("%02x", i)), 0o755); err != nil {
					b.Fatal(err)
				}
			}
			keys := make([]string, b.N)
			for i := range keys {
				sum := sha256.Sum256([]byte(strconv.Itoa(i)))
				keys[i] = hex.EncodeToString(sum[:])
			}
			b.ResetTimer()
			for _, key := range keys {
				if err := c.Put(key, rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// appendAndSync appends a journal-sized line to path and fsyncs it every
// period until the returned stop function is called.
func appendAndSync(b *testing.B, path string, period time.Duration) (stop func()) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	line := []byte(`{"t":"finish","id":"j000000","state":"done","at":"2026-01-01T00:00:00Z"}` + "\n")
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if _, err := f.Write(line); err == nil {
					_ = f.Sync() // the load is the point; a failed sync only lightens it
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		f.Close()
	}
}

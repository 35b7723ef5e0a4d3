package store

// FuzzWALReplay feeds arbitrary bytes to the store as a WAL segment.
// The durability contract under any input — hand-crafted records, torn
// tails, bit flips, garbage — is:
//
//  1. Open never panics. It may reject the log (semantically invalid
//     records: duplicate registrations, mutations of absent ids), and
//     it silently truncates at the first framing tear.
//  2. No record is ever double-applied or lost once acknowledged: a
//     successful Open → Close → Open round trip reproduces exactly the
//     same logical state.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/rel"
)

// seedWAL builds a well-formed log: register, insert-fact, delete-fact,
// register+unregister of a second instance.
func seedWAL() []byte {
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	db := rel.NewDatabase(rel.NewFact("R", "a", "1"), rel.NewFact("R", "a", "2"))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	var b bytes.Buffer
	for _, rec := range []record{
		{kind: opRegister, id: "i1", name: "seed", created: time.Unix(0, 1).UnixNano(), db: db, sigma: sigma},
		{kind: opInsertFact, id: "i1", fact: rel.NewFact("R", "b", "3")},
		{kind: opDeleteFact, id: "i1", index: 0},
		{kind: opRegister, id: "i2", name: "gone", created: time.Unix(0, 2).UnixNano(), db: db, sigma: sigma},
		{kind: opUnregister, id: "i2"},
	} {
		b.Write(frameRecord(encodeRecord(rec)))
	}
	return b.Bytes()
}

// logicalState renders the store's replayed state canonically.
func logicalState(st *Store) string {
	var b bytes.Buffer
	for _, is := range st.Instances() {
		b.WriteString(is.ID)
		b.WriteByte('|')
		b.WriteString(is.Name)
		b.WriteByte('|')
		b.WriteString(is.DB.String())
		b.WriteByte('|')
		b.WriteString(is.Sigma.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func FuzzWALReplay(f *testing.F) {
	valid := seedWAL()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn tail mid-frame
	f.Add(valid[:9])                      // torn inside the first payload
	f.Add([]byte{})                       // empty log
	f.Add([]byte("not a wal at all"))     // garbage
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // insane length headers
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40 // checksum failure mid-log
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Options{Dir: dir})
		if err != nil {
			// Semantically invalid logs are rejected, never applied
			// halfway into a panic.
			return
		}
		state1 := logicalState(st)
		if err := st.Close(); err != nil {
			t.Fatalf("closing replayed store: %v", err)
		}
		st2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after clean close failed: %v", err)
		}
		defer st2.Close()
		if state2 := logicalState(st2); state2 != state1 {
			t.Fatalf("state changed across reopen (double-applied or lost records)\nfirst:\n%s\nsecond:\n%s", state1, state2)
		}
	})
}

// FuzzDecodeInstance feeds arbitrary bytes to the snapshot decoder, the
// entry point for snapshots read from disk and received from peers.
// The contract under any input:
//
//  1. DecodeInstance never panics; it may reject the bytes.
//  2. Whatever it accepts round-trips: decode → encode → decode yields
//     the same database and FD set.
func FuzzDecodeInstance(f *testing.F) {
	sch := rel.MustSchema(rel.NewRelation("R", 2), rel.NewRelation("S", 1))
	db := rel.NewDatabase(rel.NewFact("R", "a", "1"), rel.NewFact("R", "a", "2"), rel.NewFact("S", "x y"))
	sigma := fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
	var v1, v2 bytes.Buffer
	if err := encodeInstanceV1(&v1, db, sigma); err != nil {
		f.Fatal(err)
	}
	if err := EncodeInstance(&v2, db, sigma); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{v1.Bytes(), v2.Bytes()} {
		f.Add(seed)
		f.Add(seed[:len(seed)-1]) // truncated
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d1, s1, err := DecodeInstance(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeInstance(&buf, d1, s1); err != nil {
			t.Fatalf("re-encoding an accepted snapshot: %v", err)
		}
		d2, s2, err := DecodeInstance(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded snapshot: %v", err)
		}
		if !d2.Equal(d1) || d2.String() != d1.String() || s2.String() != s1.String() {
			t.Fatalf("round trip changed the instance\nfirst:  %s | %s\nsecond: %s | %s", d1, s1, d2, s2)
		}
	})
}

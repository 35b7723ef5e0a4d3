// Package store is the durable instance store behind the OCQA service:
// a versioned binary snapshot codec for (schema, database, FD set)
// triples plus an append-only, CRC-framed write-ahead log that journals
// every registry operation (register, unregister, insert-fact,
// delete-fact). Boot replays snapshot-then-WAL; replay is crash-safe —
// a torn or corrupt tail record is detected by its checksum and the log
// is truncated back to the last complete record. Periodic compaction
// rotates the WAL to a fresh generation-named segment, folds the state
// into a snapshot stamped with that generation (written atomically via
// temp-file + rename), and deletes the retired segments; boot never
// replays a segment older than the snapshot's stamp, so a crash at any
// point of compaction leaves a consistent snapshot/WAL pair.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/fd"
	"repro/internal/rel"
)

// Instance payload versions. v1 is the row-oriented varint encoding
// (one string per relation name and argument occurrence); v2 is the
// columnar encoding of codec_v2.go, whose on-disk layout mirrors the
// in-memory dictionary-encoded columns. Standalone snapshots are
// written as v2 and read as either; WAL register records and store
// snapshots embed the v1 payload unversioned, so existing logs replay
// unchanged.
const (
	codecV1 = 1
	codecV2 = 2
)

// instanceMagic introduces a standalone instance snapshot (the facade's
// Instance.Snapshot writes exactly one of these).
var instanceMagic = []byte("OCQI")

// --- primitive encoders ---------------------------------------------------

func putUvarint(b *bytes.Buffer, n uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], n)])
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func putInts(b *bytes.Buffer, xs []int) {
	putUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		putUvarint(b, uint64(x))
	}
}

type reader struct {
	r *bytes.Reader
}

func (rd reader) uvarint() (uint64, error) {
	return binary.ReadUvarint(rd.r)
}

func (rd reader) count(what string, limit uint64) (int, error) {
	n, err := rd.uvarint()
	if err != nil {
		return 0, fmt.Errorf("store: reading %s count: %w", what, err)
	}
	if n > limit {
		return 0, fmt.Errorf("store: %s count %d exceeds sanity limit %d", what, n, limit)
	}
	// Every counted item occupies at least one byte after its count, so
	// a larger count is corrupt; rejecting it here keeps a forged count
	// from sizing an allocation.
	if n > uint64(rd.r.Len()) {
		return 0, fmt.Errorf("store: %s count %d exceeds the remaining %d bytes", what, n, rd.r.Len())
	}
	return int(n), nil
}

func (rd reader) string_() (string, error) {
	n, err := rd.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(rd.r.Len()) {
		return "", fmt.Errorf("store: string length %d exceeds remaining %d bytes", n, rd.r.Len())
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (rd reader) ints() ([]int, error) {
	n, err := rd.count("attribute", 1<<16)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		v, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// --- instance payload -----------------------------------------------------

// encodeSchemaFDs appends the schema and FD blocks shared by both
// payload versions.
func encodeSchemaFDs(b *bytes.Buffer, sigma *fd.Set) {
	sch := sigma.Schema()
	rels := sch.Relations()
	putUvarint(b, uint64(len(rels)))
	for _, r := range rels {
		putString(b, r.Name)
		putUvarint(b, uint64(len(r.Attrs)))
		for _, a := range r.Attrs {
			putString(b, a)
		}
	}
	fds := sigma.FDs()
	putUvarint(b, uint64(len(fds)))
	for _, f := range fds {
		putString(b, f.Rel)
		putInts(b, f.LHS)
		putInts(b, f.RHS)
	}
}

// encodeInstancePayload appends the versionless v1 body: schema, FDs,
// facts as strings. WAL register records and store snapshots embed
// this body in their own frames; standalone snapshots now write the
// columnar v2 payload instead (codec_v2.go).
func encodeInstancePayload(b *bytes.Buffer, d *rel.Database, sigma *fd.Set) {
	encodeSchemaFDs(b, sigma)
	putUvarint(b, uint64(d.Len()))
	for _, f := range d.Facts() {
		putString(b, f.Rel)
		putUvarint(b, uint64(len(f.Args)))
		for _, a := range f.Args {
			putString(b, a)
		}
	}
}

// decodeSchemaFDs reads the schema and FD blocks shared by both
// payload versions.
func decodeSchemaFDs(rd reader) (*fd.Set, error) {
	nRels, err := rd.count("relation", 1<<20)
	if err != nil {
		return nil, err
	}
	rels := make([]rel.Relation, 0, nRels)
	for i := 0; i < nRels; i++ {
		name, err := rd.string_()
		if err != nil {
			return nil, fmt.Errorf("store: relation name: %w", err)
		}
		nAttrs, err := rd.count("attribute", 1<<16)
		if err != nil {
			return nil, err
		}
		attrs := make([]string, nAttrs)
		for j := range attrs {
			if attrs[j], err = rd.string_(); err != nil {
				return nil, fmt.Errorf("store: attribute name: %w", err)
			}
		}
		rels = append(rels, rel.Relation{Name: name, Attrs: attrs})
	}
	sch, err := rel.NewSchema(rels...)
	if err != nil {
		return nil, fmt.Errorf("store: decoded schema invalid: %w", err)
	}
	nFDs, err := rd.count("FD", 1<<20)
	if err != nil {
		return nil, err
	}
	fds := make([]fd.FD, 0, nFDs)
	for i := 0; i < nFDs; i++ {
		relName, err := rd.string_()
		if err != nil {
			return nil, err
		}
		lhs, err := rd.ints()
		if err != nil {
			return nil, err
		}
		rhs, err := rd.ints()
		if err != nil {
			return nil, err
		}
		fds = append(fds, fd.New(relName, lhs, rhs))
	}
	sigma, err := fd.NewSet(sch, fds...)
	if err != nil {
		return nil, fmt.Errorf("store: decoded FD set invalid: %w", err)
	}
	return sigma, nil
}

func decodeInstancePayload(rd reader) (*rel.Database, *fd.Set, error) {
	sigma, err := decodeSchemaFDs(rd)
	if err != nil {
		return nil, nil, err
	}
	nFacts, err := rd.count("fact", 1<<28)
	if err != nil {
		return nil, nil, err
	}
	facts := make([]rel.Fact, 0, nFacts)
	for i := 0; i < nFacts; i++ {
		relName, err := rd.string_()
		if err != nil {
			return nil, nil, err
		}
		nArgs, err := rd.count("argument", 1<<16)
		if err != nil {
			return nil, nil, err
		}
		args := make([]string, nArgs)
		for j := range args {
			if args[j], err = rd.string_(); err != nil {
				return nil, nil, err
			}
		}
		facts = append(facts, rel.NewFact(relName, args...))
	}
	return rel.NewDatabase(facts...), sigma, nil
}

// EncodeInstance writes a standalone versioned snapshot of one
// (schema, database, FD set) triple in the columnar v2 format.
func EncodeInstance(w io.Writer, d *rel.Database, sigma *fd.Set) error {
	var b bytes.Buffer
	b.Write(instanceMagic)
	putUvarint(&b, codecV2)
	encodeInstancePayloadV2(&b, d, sigma)
	_, err := w.Write(b.Bytes())
	return err
}

// encodeInstanceV1 writes the legacy row-oriented snapshot — kept so
// the migration tests (and any tool that needs to produce v1 for old
// readers) exercise the exact bytes previous releases wrote.
func encodeInstanceV1(w io.Writer, d *rel.Database, sigma *fd.Set) error {
	var b bytes.Buffer
	b.Write(instanceMagic)
	putUvarint(&b, codecV1)
	encodeInstancePayload(&b, d, sigma)
	_, err := w.Write(b.Bytes())
	return err
}

// DecodeInstance reads a standalone snapshot written by EncodeInstance:
// the columnar v2 format or the legacy v1 row format.
func DecodeInstance(r io.Reader) (*rel.Database, *fd.Set, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	return decodeInstanceBytes(raw)
}

// decodeInstanceBytes decodes a standalone snapshot held in memory (or
// in a file mapping — the v2 fast path lets the database columns alias
// raw, see codec_v2.go).
func decodeInstanceBytes(raw []byte) (*rel.Database, *fd.Set, error) {
	if len(raw) < len(instanceMagic) || !bytes.Equal(raw[:len(instanceMagic)], instanceMagic) {
		return nil, nil, fmt.Errorf("store: not an instance snapshot (bad magic)")
	}
	rd := reader{bytes.NewReader(raw[len(instanceMagic):])}
	v, err := rd.uvarint()
	if err != nil {
		return nil, nil, err
	}
	switch v {
	case codecV1:
		return decodeInstancePayload(rd)
	case codecV2:
		return decodeInstancePayloadV2(raw, rd)
	default:
		return nil, nil, fmt.Errorf("store: snapshot codec version %d not supported (have %d)", v, codecV2)
	}
}

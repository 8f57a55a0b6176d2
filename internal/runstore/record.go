// The record codec: a deterministic binary encoding for journal
// records. Each record travels in a frame of
//
//	u32le payload length | u32le CRC-32C of payload | payload
//
// and the payload is a type byte followed by varint-coded fields
// (zigzag for signed, uvarint for unsigned, length-prefixed bytes for
// strings). The encoding has no maps, no floats, and no timestamps, so
// the same records always produce the same bytes — golden segment
// files stay stable across Go versions.
package runstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"geoblock/internal/geo"
	"geoblock/internal/scanner"
)

// Record types. The journal is a single interleaved stream: phases
// announce themselves once, then their samples and checkpoints carry
// the phase ID.
const (
	recPhaseBegin byte = 1 // key, name, fingerprint
	recSample     byte = 2 // phase ID + one scanner.Sample
	recCheckpoint byte = 3 // phase ID + one completed shard
	recOutage     byte = 4 // phase ID + one scanner.Outage
	recCoverage   byte = 5 // phase ID + the scanner.Coverage summary
	recPhaseDone  byte = 6 // phase ID
)

// segMagic opens every segment file.
const segMagic = "GBRUNST1"

// frameHeader is the byte length of the length+CRC prefix.
const frameHeader = 8

// maxPayload bounds a single record payload; a frame announcing more
// is treated as corruption, not an allocation request.
const maxPayload = 16 << 20

// MaxShardPayload bounds one shard's EncodeShardFrames payload, the
// body of a fabric completion: room for a maximal checkpoint record
// (which carries the unit's metrics and trace events on the wire) and
// as much again of sample records. Shards of the shipped sizes stay
// far below it.
const MaxShardPayload = 2 * (frameHeader + maxPayload)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is the decoded form of one journal record. Type selects which
// of the other fields are meaningful; Phase identifies the owning
// phase for every type but recPhaseBegin (where the ID is implicit in
// announcement order).
type Record struct {
	Type  byte
	Phase int

	// recPhaseBegin.
	Key         string
	Name        string
	Fingerprint uint64

	// recSample.
	Sample scanner.Sample

	// recCheckpoint.
	Checkpoint Checkpoint

	// recOutage.
	Outage scanner.Outage

	// recCoverage.
	Coverage scanner.Coverage
}

// Checkpoint records one completed scheduler shard: its canonical
// sequence number, country, task and sample counts, loss reason, and
// the JSON-encoded deterministic telemetry snapshot the shard staged
// (nil when the scan ran without a registry). A checkpoint is the
// commit point for the sample records preceding it.
type Checkpoint struct {
	Seq     int
	Country string
	Tasks   int
	Samples int
	Lost    scanner.OutageReason
	Metrics []byte
}

// encodeRecord renders rec's payload (type byte + fields).
func encodeRecord(rec Record) []byte {
	b := []byte{rec.Type}
	switch rec.Type {
	case recPhaseBegin:
		b = appendString(b, rec.Key)
		b = appendString(b, rec.Name)
		b = binary.AppendUvarint(b, rec.Fingerprint)
	case recSample:
		b = binary.AppendUvarint(b, uint64(rec.Phase))
		s := rec.Sample
		b = binary.AppendVarint(b, int64(s.Domain))
		b = binary.AppendVarint(b, int64(s.Country))
		b = binary.AppendUvarint(b, uint64(s.Attempt))
		b = binary.AppendUvarint(b, uint64(s.Err))
		b = binary.AppendVarint(b, int64(s.Status))
		b = binary.AppendVarint(b, int64(s.BodyLen))
		b = binary.AppendUvarint(b, uint64(s.ExitIP))
		b = binary.AppendUvarint(b, s.Seed)
		b = appendString(b, s.Body)
	case recCheckpoint:
		b = binary.AppendUvarint(b, uint64(rec.Phase))
		cp := rec.Checkpoint
		b = binary.AppendUvarint(b, uint64(cp.Seq))
		b = appendString(b, cp.Country)
		b = binary.AppendUvarint(b, uint64(cp.Tasks))
		b = binary.AppendUvarint(b, uint64(cp.Samples))
		b = binary.AppendUvarint(b, uint64(cp.Lost))
		b = appendBytes(b, cp.Metrics)
	case recOutage:
		b = binary.AppendUvarint(b, uint64(rec.Phase))
		o := rec.Outage
		b = appendString(b, string(o.Country))
		b = binary.AppendUvarint(b, uint64(o.Reason))
		b = binary.AppendUvarint(b, uint64(o.Shards))
		b = binary.AppendUvarint(b, uint64(o.ShardsTotal))
		b = binary.AppendUvarint(b, uint64(o.Tasks))
	case recCoverage:
		b = binary.AppendUvarint(b, uint64(rec.Phase))
		c := rec.Coverage
		b = binary.AppendUvarint(b, uint64(c.Requested))
		b = binary.AppendUvarint(b, uint64(c.Attained))
		b = binary.AppendUvarint(b, uint64(c.TasksLost))
		b = binary.AppendUvarint(b, uint64(len(c.Lost)))
		for _, cc := range c.Lost {
			b = appendString(b, string(cc))
		}
	case recPhaseDone:
		b = binary.AppendUvarint(b, uint64(rec.Phase))
	default:
		panic(fmt.Sprintf("runstore: encodeRecord of unknown type %d", rec.Type))
	}
	return b
}

// frame wraps a payload in the length+CRC header.
func frame(payload []byte) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// DecodeRecord parses one record payload (as framed by the store,
// after its CRC already checked out). Decoding is strict: unknown
// types, fields outside their target range, and payloads with missing
// or trailing bytes all error rather than round into a plausible
// record.
func DecodeRecord(payload []byte) (Record, error) {
	d := dec{b: payload}
	var rec Record
	t, err := d.u8()
	if err != nil {
		return rec, err
	}
	rec.Type = t
	switch t {
	case recPhaseBegin:
		rec.Key, err = d.str()
		if err == nil {
			rec.Name, err = d.str()
		}
		if err == nil {
			rec.Fingerprint, err = d.uvarint()
		}
	case recSample:
		rec.Phase, err = d.count()
		s := &rec.Sample
		if err == nil {
			var v int64
			v, err = d.rangedVarint(math.MinInt32, math.MaxInt32)
			s.Domain = int32(v)
		}
		if err == nil {
			var v int64
			v, err = d.rangedVarint(math.MinInt16, math.MaxInt16)
			s.Country = int16(v)
		}
		if err == nil {
			var v byte
			v, err = d.uvarint8()
			s.Attempt = v
		}
		if err == nil {
			var v byte
			v, err = d.uvarint8()
			s.Err = scanner.ErrCode(v)
		}
		if err == nil {
			var v int64
			v, err = d.rangedVarint(math.MinInt16, math.MaxInt16)
			s.Status = int16(v)
		}
		if err == nil {
			var v int64
			v, err = d.rangedVarint(math.MinInt32, math.MaxInt32)
			s.BodyLen = int32(v)
		}
		if err == nil {
			var v uint64
			v, err = d.uvarint()
			if err == nil && v > math.MaxUint32 {
				err = fmt.Errorf("runstore: exit IP %d overflows uint32", v)
			}
			s.ExitIP = geo.IP(v)
		}
		if err == nil {
			s.Seed, err = d.uvarint()
		}
		if err == nil {
			s.Body, err = d.str()
		}
	case recCheckpoint:
		rec.Phase, err = d.count()
		cp := &rec.Checkpoint
		if err == nil {
			cp.Seq, err = d.count()
		}
		if err == nil {
			cp.Country, err = d.str()
		}
		if err == nil {
			cp.Tasks, err = d.count()
		}
		if err == nil {
			cp.Samples, err = d.count()
		}
		if err == nil {
			var v byte
			v, err = d.uvarint8()
			cp.Lost = scanner.OutageReason(v)
		}
		if err == nil {
			cp.Metrics, err = d.bytes()
		}
	case recOutage:
		rec.Phase, err = d.count()
		o := &rec.Outage
		if err == nil {
			var s string
			s, err = d.str()
			o.Country = geo.CountryCode(s)
		}
		if err == nil {
			var v byte
			v, err = d.uvarint8()
			o.Reason = scanner.OutageReason(v)
		}
		if err == nil {
			o.Shards, err = d.count()
		}
		if err == nil {
			o.ShardsTotal, err = d.count()
		}
		if err == nil {
			o.Tasks, err = d.count()
		}
	case recCoverage:
		rec.Phase, err = d.count()
		c := &rec.Coverage
		if err == nil {
			c.Requested, err = d.count()
		}
		if err == nil {
			c.Attained, err = d.count()
		}
		if err == nil {
			c.TasksLost, err = d.count()
		}
		if err == nil {
			var n int
			n, err = d.count()
			for i := 0; err == nil && i < n; i++ {
				var s string
				s, err = d.str()
				c.Lost = append(c.Lost, geo.CountryCode(s))
			}
		}
	case recPhaseDone:
		rec.Phase, err = d.count()
	default:
		return rec, fmt.Errorf("runstore: unknown record type %d", t)
	}
	if err != nil {
		return rec, err
	}
	if len(d.b) != 0 {
		return rec, fmt.Errorf("runstore: %d trailing bytes after record type %d", len(d.b), t)
	}
	return rec, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

var errTruncated = errors.New("runstore: truncated record payload")

// dec is a strict cursor over a record payload.
type dec struct{ b []byte }

func (d *dec) u8() (byte, error) {
	if len(d.b) == 0 {
		return 0, errTruncated
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, errTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

// rangedVarint decodes a signed field and rejects values outside
// [lo, hi] — a bit flip must not silently reinterpret a sample.
func (d *dec) rangedVarint(lo, hi int64) (int64, error) {
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("runstore: field value %d outside [%d,%d]", v, lo, hi)
	}
	return v, nil
}

// uvarint8 decodes an unsigned field that must fit a byte.
func (d *dec) uvarint8() (byte, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint8 {
		return 0, fmt.Errorf("runstore: field value %d overflows uint8", v)
	}
	return byte(v), nil
}

// count decodes a non-negative int-sized field (sequence numbers,
// lengths, phase IDs).
func (d *dec) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("runstore: count %d overflows", v)
	}
	return int(v), nil
}

func (d *dec) bytes() ([]byte, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	if n > len(d.b) {
		return nil, errTruncated
	}
	if n == 0 {
		return nil, nil
	}
	p := make([]byte, n)
	copy(p, d.b)
	d.b = d.b[n:]
	return p, nil
}

func (d *dec) str() (string, error) {
	p, err := d.bytes()
	return string(p), err
}

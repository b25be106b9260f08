package feedback

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/frame"
	"repro/internal/plan"
)

// Observation-log record framing. Each record is the {magic "FBL1",
// payload length, CRC-32} header of internal/frame — the one the stream
// protocol also writes — in front of a fixed-layout little-endian
// payload:
//
//	byte    codec version (1 or 2)
//	byte    resource kind
//	uint64  model version
//	int64   unix nanos
//	float64 predicted (IEEE bits)
//	uint16  schema length, schema bytes
//	uint32  plan length, plan bytes (the plan's wire JSON as received,
//	        else as plan.EncodeJSON writes it; either way what
//	        plan.DecodeJSON reads back, per-node Actual resources
//	        included)
//	uint16  request-ID length, request-ID bytes (version 2 only)
//
// Version 2 appends the serving request ID after the plan; an
// observation without one still encodes as version 1, so logs written
// before the field existed and logs written by request-ID-less callers
// are byte-identical. Decode accepts both versions.
//
// The CRC makes torn or bit-rotted tail writes detectable: replay stops
// at the first record that fails the check, and the log writer truncates
// the segment back to the last valid record boundary on open — the
// crash-safety contract of the observation log.

const (
	codecVersion    = 1
	codecVersionV2  = 2
	recordHeader    = frame.HeaderSize
	maxSchemaLen    = 1 << 16
	maxRequestIDLen = 1 << 10
	maxRecordSize   = 16 << 20
)

// errCorrupt marks framing damage (torn write, CRC mismatch, garbage).
// It is deliberately distinct from decode errors inside a CRC-valid
// payload, which indicate a writer bug rather than a crash.
var errCorrupt = errors.New("feedback: corrupt log record")

var format = frame.Format{Magic: 0x46424C31 /* "FBL1" */, Min: 1, Max: maxRecordSize, Corrupt: errCorrupt}

// EncodeObservation appends the framed binary record for obs to dst and
// returns the extended slice.
func EncodeObservation(dst []byte, obs *Observation) ([]byte, error) {
	return encodeObservation(dst, obs, nil)
}

// encodeObservation is EncodeObservation for a caller that still holds
// the wire JSON obs.Plan was decoded from: those bytes go into the
// record as they are, instead of a re-encoding of the plan. nil wire
// re-encodes.
func encodeObservation(dst []byte, obs *Observation, wire []byte) ([]byte, error) {
	if obs.Plan == nil || obs.Plan.Root == nil {
		return nil, errors.New("feedback: encode observation without plan")
	}
	if len(obs.Schema) >= maxSchemaLen {
		return nil, fmt.Errorf("feedback: schema name %d bytes long", len(obs.Schema))
	}
	if len(obs.RequestID) >= maxRequestIDLen {
		return nil, fmt.Errorf("feedback: request ID %d bytes long", len(obs.RequestID))
	}
	planBytes := wire
	if planBytes == nil {
		var err error
		if planBytes, err = plan.EncodeJSON(obs.Plan); err != nil {
			return nil, err
		}
	}
	// Records without a request ID stay on version 1, byte-identical to
	// what pre-request-ID writers produced.
	version := byte(codecVersion)
	extra := 0
	if obs.RequestID != "" {
		version = codecVersionV2
		extra = 2 + len(obs.RequestID)
	}
	payloadLen := 2 + 8 + 8 + 8 + 2 + len(obs.Schema) + 4 + len(planBytes) + extra
	if payloadLen > maxRecordSize {
		return nil, fmt.Errorf("feedback: observation record %d bytes exceeds limit", payloadLen)
	}
	// The payload is written straight behind a reserved header, which is
	// filled in once the bytes its CRC covers exist.
	at := len(dst)
	dst = frame.Reserve(slices.Grow(dst, recordHeader+payloadLen))
	dst = append(dst, version, byte(obs.Resource))
	dst = binary.LittleEndian.AppendUint64(dst, obs.ModelVersion)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(obs.UnixNanos))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(obs.Predicted))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(obs.Schema)))
	dst = append(dst, obs.Schema...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(planBytes)))
	dst = append(dst, planBytes...)
	if version == codecVersionV2 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(obs.RequestID)))
		dst = append(dst, obs.RequestID...)
	}
	format.Seal(dst, at)
	return dst, nil
}

// DecodeObservation parses a record payload (CRC already verified).
func DecodeObservation(payload []byte) (*Observation, error) {
	if len(payload) < 2+8+8+8+2 {
		return nil, errors.New("feedback: truncated observation payload")
	}
	version := payload[0]
	if version != codecVersion && version != codecVersionV2 {
		return nil, fmt.Errorf("feedback: unsupported observation codec version %d", version)
	}
	obs := &Observation{Resource: plan.ResourceKind(payload[1])}
	if obs.Resource != plan.CPUTime && obs.Resource != plan.LogicalIO {
		return nil, fmt.Errorf("feedback: unknown resource kind %d", payload[1])
	}
	p := payload[2:]
	obs.ModelVersion = binary.LittleEndian.Uint64(p)
	obs.UnixNanos = int64(binary.LittleEndian.Uint64(p[8:]))
	obs.Predicted = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
	schemaLen := int(binary.LittleEndian.Uint16(p[24:]))
	p = p[26:]
	if len(p) < schemaLen+4 {
		return nil, errors.New("feedback: truncated schema field")
	}
	obs.Schema = string(p[:schemaLen])
	p = p[schemaLen:]
	planLen := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if version == codecVersion {
		if len(p) != planLen {
			return nil, fmt.Errorf("feedback: plan field %d bytes, header says %d", len(p), planLen)
		}
	} else if len(p) < planLen+2 {
		return nil, fmt.Errorf("feedback: plan field %d bytes, header says %d plus request ID", len(p), planLen)
	}
	pl, err := plan.DecodeJSON(p[:planLen])
	if err != nil {
		return nil, err
	}
	obs.Plan = pl
	if version == codecVersionV2 {
		p = p[planLen:]
		idLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) != idLen {
			return nil, fmt.Errorf("feedback: request-ID field %d bytes, header says %d", len(p), idLen)
		}
		obs.RequestID = string(p)
	}
	return obs, nil
}

// readRecord reads one framed record from br, returning its payload and
// total encoded size. io.EOF marks a clean record boundary; errCorrupt
// (possibly wrapped) marks a torn or damaged tail.
func readRecord(br *bufio.Reader) (payload []byte, size int64, err error) {
	if payload, err = format.Read(br); err != nil {
		return nil, 0, err
	}
	return payload, recordHeader + int64(len(payload)), nil
}

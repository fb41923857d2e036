package kb

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// This file holds the KB's binary wire formats: the replicated command
// carried in every Raft log entry, and the varint reader shared with the
// store image (store.go). Both are hand-rolled so the replication path
// runs without reflection; registry values inside them stay whatever the
// caller wrote (JSON for the Resource Registry).

// cmdOp is a command's op code. It is the first byte of an encoded
// command and doubles as the format version: a future layout takes new
// op codes, and a replica skips codes it does not know.
type cmdOp byte

const (
	opPut cmdOp = iota + 1
	opDelete
	opCAS
	opNop
)

// command is the replicated state-machine operation.
type command struct {
	Op    cmdOp
	Key   string
	Value []byte
	Lease int64
	// ExpectRev is the CAS precondition (0 = key must not exist).
	ExpectRev int64
}

var errMalformed = errors.New("kb: malformed record")

// encodeCommand renders cmd as: op byte, uvarint-length-prefixed key and
// value, then varint lease and expectRev.
func encodeCommand(cmd command) []byte {
	n := 1 + uvarintLen(uint64(len(cmd.Key))) + len(cmd.Key) +
		uvarintLen(uint64(len(cmd.Value))) + len(cmd.Value) +
		varintLen(cmd.Lease) + varintLen(cmd.ExpectRev)
	b := make([]byte, 0, n)
	b = append(b, byte(cmd.Op))
	b = appendBytes(b, cmd.Key)
	b = appendBytes(b, cmd.Value)
	b = binary.AppendVarint(b, cmd.Lease)
	return binary.AppendVarint(b, cmd.ExpectRev)
}

// decodeCommand parses an encodeCommand record. The returned Value
// aliases data; Store.PutLease and Store.CAS copy it before keeping it.
func decodeCommand(data []byte) (command, error) {
	if len(data) == 0 || cmdOp(data[0]) < opPut || cmdOp(data[0]) > opNop {
		return command{}, errMalformed
	}
	r := wireReader{b: data[1:]}
	cmd := command{Op: cmdOp(data[0])}
	cmd.Key = string(r.bytes())
	cmd.Value = r.bytes()
	cmd.Lease = r.varint()
	cmd.ExpectRev = r.varint()
	if err := r.done(); err != nil {
		return command{}, err
	}
	return cmd, nil
}

// appendBytes appends a uvarint length prefix and then s.
func appendBytes[T string | []byte](b []byte, s T) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// uvarintLen is the encoded size of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the encoded size of binary.AppendVarint(nil, x).
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// wireReader walks a varint record. The first error sticks: later reads
// return zero values, so a decoder checks once, at done.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errMalformed
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errMalformed
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads a uvarint-length-prefixed field, aliasing the record. The
// result's capacity is clipped so an append cannot overwrite what
// follows it.
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = errMalformed
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// done reports the first error, or a malformed record when bytes remain.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = errMalformed
	}
	return r.err
}

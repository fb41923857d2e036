package kb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"
)

func TestCommandCodecRoundTrip(t *testing.T) {
	for _, cmd := range []command{
		{Op: opPut, Key: "/registry/status/edge-0", Value: []byte(`{"state":"up"}`), Lease: 7},
		{Op: opDelete, Key: "/k"},
		{Op: opCAS, Key: "mirto/own/app/stage", Value: []byte("tok"), ExpectRev: math.MaxInt64},
		{Op: opCAS, Key: "/k", ExpectRev: 0},
		{Op: opNop},
		{Op: opPut, Key: "", Value: nil, Lease: -1, ExpectRev: math.MinInt64},
	} {
		data := encodeCommand(cmd)
		if len(data) != cap(data) {
			t.Errorf("%+v: encoded %d bytes into capacity %d", cmd, len(data), cap(data))
		}
		got, err := decodeCommand(data)
		if err != nil || !commandsEqual(got, cmd) {
			t.Errorf("round trip of %+v = %+v, %v", cmd, got, err)
		}
		// Every strict prefix is malformed.
		for i := range data {
			if _, err := decodeCommand(data[:i]); err == nil {
				t.Errorf("%+v: %d-byte prefix decoded", cmd, i)
			}
		}
		if _, err := decodeCommand(append(data, 0)); err == nil {
			t.Errorf("%+v: trailing byte accepted", cmd)
		}
	}
	for _, op := range []byte{0, byte(opNop) + 1, 0xFF, '{'} {
		if _, err := decodeCommand([]byte{op, 0, 0, 0, 0}); err == nil {
			t.Errorf("unknown op code %#x accepted", op)
		}
	}
}

func TestStoreImageRejectsCorruption(t *testing.T) {
	s := NewStore()
	s.Put("/a", []byte("1"))
	s.PutLease("/b", []byte("22"), 9)
	s.Put("/c", nil)
	img := s.Serialize()
	if len(img) != cap(img) {
		t.Fatalf("image of %d bytes in capacity %d", len(img), cap(img))
	}
	for i := range img {
		if err := NewStore().Restore(img[:i]); err == nil {
			t.Errorf("%d-byte prefix of a %d-byte image restored", i, len(img))
		}
		flipped := append([]byte(nil), img...)
		flipped[i] ^= 0x10
		if err := NewStore().Restore(flipped); err == nil {
			t.Errorf("image with byte %d flipped restored", i)
		}
	}
	// A well-sealed image whose keys are out of order is still rejected:
	// restoring it could not reproduce its bytes.
	entry := func(key string) []byte { return []byte{2, '/', key[0], 0, 2, 2, 2, 0} }
	head := []byte{imageMagic, 2, 2, 2} // revision 1, compacted 1, two keys
	sorted := append(append(append([]byte(nil), head...), entry("a")...), entry("b")...)
	unsorted := append(append(append([]byte(nil), head...), entry("b")...), entry("a")...)
	if err := NewStore().Restore(sealImage(sorted)); err != nil {
		t.Fatalf("hand-built image rejected: %v", err)
	}
	if err := NewStore().Restore(sealImage(unsorted)); err == nil {
		t.Error("image with unsorted keys restored")
	}
}

// sealImage appends the CRC-32 trailer Serialize writes.
func sealImage(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// FuzzCommandCodec: arbitrary bytes never panic the decoder, anything it
// accepts re-encodes to a record that decodes the same, and every
// encodable command round-trips field for field.
func FuzzCommandCodec(f *testing.F) {
	f.Add([]byte(nil), byte(opPut), "/registry/status/edge-0", []byte(`{"state":"up"}`), int64(3), int64(0))
	f.Add(encodeCommand(command{Op: opCAS, Key: "k", Value: []byte("v"), ExpectRev: 12}), byte(opCAS), "k", []byte{}, int64(0), int64(-5))
	f.Add([]byte{byte(opPut), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, byte(opNop), "", []byte(nil), int64(math.MinInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, raw []byte, op byte, key string, value []byte, lease, expectRev int64) {
		if got, err := decodeCommand(raw); err == nil {
			again, err := decodeCommand(encodeCommand(got))
			if err != nil || !commandsEqual(again, got) {
				t.Fatalf("re-encoding %+v decoded as %+v, %v", got, again, err)
			}
		}
		cmd := command{Op: opPut + cmdOp(op%4), Key: key, Value: value, Lease: lease, ExpectRev: expectRev}
		got, err := decodeCommand(encodeCommand(cmd))
		if err != nil || !commandsEqual(got, cmd) {
			t.Fatalf("round trip of %+v = %+v, %v", cmd, got, err)
		}
	})
}

// FuzzStoreImage builds a store from a fuzzed script of writes, then
// checks that Serialize → Restore → Serialize is a fixed point and that a
// flipped bit or a truncation is always reported. The raw script bytes are
// also fed to Restore, which must never panic; anything it accepts must
// reach the same fixed point.
func FuzzStoreImage(f *testing.F) {
	f.Add([]byte("put a 1; put b 22; del a; cas b"), uint16(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(0))
	f.Add(NewStore().Serialize(), uint16(1))
	f.Fuzz(func(t *testing.T, script []byte, flip uint16) {
		if s := NewStore(); s.Restore(script) == nil {
			assertImageFixedPoint(t, s.Serialize())
		}
		s := NewStore()
		for i := 0; i+1 < len(script); i += 2 {
			key := fmt.Sprintf("/k%d", script[i]%8)
			value := bytes.Repeat([]byte{script[i+1]}, int(script[i+1]%5))
			switch script[i] % 4 {
			case 0:
				s.Put(key, value)
			case 1:
				s.PutLease(key, value, int64(script[i+1]))
			case 2:
				s.Delete(key)
			case 3:
				kv, _ := s.Get(key)
				s.CAS(key, kv.ModRevision, value)
			}
		}
		img := s.Serialize()
		assertImageFixedPoint(t, img)
		if err := NewStore().Restore(img[:int(flip)%len(img)]); err == nil {
			t.Fatalf("truncation to %d of %d bytes restored", int(flip)%len(img), len(img))
		}
		bad := append([]byte(nil), img...)
		bad[int(flip>>3)%len(bad)] ^= 1 << (flip & 7)
		if err := NewStore().Restore(bad); err == nil {
			t.Fatalf("image with bit %d flipped restored", flip)
		}
	})
}

func assertImageFixedPoint(t *testing.T, img []byte) {
	t.Helper()
	s := NewStore()
	if err := s.Restore(img); err != nil {
		t.Fatalf("restoring a Serialize image: %v", err)
	}
	if again := s.Serialize(); !bytes.Equal(again, img) {
		t.Fatalf("Serialize after Restore differs:\n%x\n%x", img, again)
	}
}

// commandsEqual compares field for field; nil and empty values are the
// same write.
func commandsEqual(a, b command) bool {
	return a.Op == b.Op && a.Key == b.Key && bytes.Equal(a.Value, b.Value) &&
		a.Lease == b.Lease && a.ExpectRev == b.ExpectRev
}

package tcpnet

import (
	"bytes"
	"testing"

	"mph/internal/mpi"
)

var pkt = mpi.Packet{Ctx: 7, Src: 1, Tag: 2, Data: []byte("payload")}

// FuzzReadFrame asserts the wire decoder never panics or over-allocates on
// adversarial input, and that packet and rendezvous bodies it accepts decode
// cleanly.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, kindPacket})
	f.Add(encodePacket(0, &pkt, 0))
	f.Add(encodePacket(3, &pkt, 99))
	f.Add([]byte{1, 0, 0, 0, kindRTS})
	f.Add([]byte{1, 0, 0, 0, kindCTS})
	f.Add([]byte{1, 0, 0, 0, kindRData})
	f.Add(encodeRTS(1, &pkt, 17))
	f.Add(func() []byte {
		hdr := make([]byte, 5+rdataHdrLen)
		encodeRDataHeader(hdr, 1, 17, len(pkt.Data))
		return append(hdr, pkt.Data...)
	}())
	f.Add(formerAbortFrame) // unassigned kind: the read loop rejects it
	f.Fuzz(func(t *testing.T, buf []byte) {
		kind, body, err := readFrame(bytes.NewReader(buf))
		if err != nil {
			return
		}
		switch kind {
		case kindPacket:
			decodePacket(body) // must not panic
		case kindRTS:
			decodeRTS(body) // must not panic
		case kindRData:
			decodeRData(body) // must not panic
		}
	})
}

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"

	"repro/internal/hw"
	"repro/internal/vm"
)

// Request wire format, shared by serve-poll and prefork-churn: a 4-byte
// request id, a 4-byte payload length, then the payload. The server echoes
// the whole message; the client compares it byte for byte.
const (
	hdrBytes   = 8
	minPayload = 4
	maxPayload = 1024
	maxMsg     = hdrBytes + maxPayload
)

// Client-side buffers in the data region: the request being sent, the
// response being received, and the start token.
const (
	reqVA   = vm.DataBase
	respVA  = vm.DataBase + 2*hw.PageSize
	tokenVA = vm.DataBase + 4*hw.PageSize
)

// inputs are one trial's generated requests: a seeded byte pool the
// payloads are cut from, and a seeded payload size per request id.
type inputs struct {
	pool  []byte
	sizes []uint16 // indexed by id-1
}

// newInputs draws n requests from rng. Sizes are log-uniform over
// [minPayload, maxPayload], so small requests dominate the way they do in
// real request mixes while 1 KiB ones still occur.
func newInputs(rng *rand.Rand, n int) *inputs {
	in := &inputs{pool: make([]byte, 2*maxPayload), sizes: make([]uint16, n)}
	for i := range in.pool {
		in.pool[i] = byte(rng.Uint32())
	}
	lo, hi := math.Log(minPayload), math.Log(maxPayload+1)
	for i := range in.sizes {
		in.sizes[i] = uint16(math.Exp(lo + rng.Float64()*(hi-lo)))
	}
	return in
}

// message renders request id into buf and returns the message.
func (in *inputs) message(buf []byte, id int64) []byte {
	size := int(in.sizes[id-1])
	msg := buf[:hdrBytes+size]
	binary.LittleEndian.PutUint32(msg[0:], uint32(id))
	binary.LittleEndian.PutUint32(msg[4:], uint32(size))
	off := int(id*131) % maxPayload
	copy(msg[hdrBytes:], in.pool[off:off+size])
	return msg
}

// send writes request id on fd from the client's request buffer.
func (in *inputs) send(p *probe, msgBuf []byte, fd int, id int64) error {
	msg := in.message(msgBuf, id)
	if err := p.StoreBytes(reqVA, msg, id); err != nil {
		return err
	}
	_, err := p.Write(fd, reqVA, len(msg), id)
	return err
}

// receive reads the response to request id from fd and reports whether it
// echoes the request exactly.
func (in *inputs) receive(p *probe, msgBuf, got []byte, fd int, id int64) (bool, error) {
	want := in.message(msgBuf, id)
	n := 0
	for n < len(want) {
		k, err := p.Read(fd, respVA+hw.VAddr(n), len(want)-n, id)
		if err != nil {
			return false, err
		}
		if k == 0 {
			return false, nil // the server hung up early
		}
		n += k
	}
	if err := p.LoadBytes(respVA, got[:n], id); err != nil {
		return false, err
	}
	if !bytes.Equal(got[:n], want) {
		i := 0
		for i < n && got[i] == want[i] {
			i++
		}
		fmt.Fprintf(os.Stderr, "perfbench: request %d: echo differs from byte %d: got % x, want % x\n",
			id, i, got[i:min(n, i+8)], want[i:min(n, i+8)])
		return false, nil
	}
	return true, nil
}

// echoOne serves one request on fd from the server's buffer at va: read
// the header (which names the request the spans belong to), read the rest
// of the message, and write it back. It returns the request id, or ok
// false when the peer hung up or broke the protocol.
func echoOne(p *probe, fd int, va hw.VAddr) (id int64, ok bool) {
	m := p.mark()
	n, err := p.c.Read(fd, va, maxMsg)
	if err != nil || n <= 0 {
		p.span(cRead, 0, m)
		return 0, false
	}
	for n < hdrBytes {
		k, err := p.Read(fd, va+hw.VAddr(n), hdrBytes-n, 0)
		if err != nil || k <= 0 {
			return 0, false
		}
		n += k
	}
	rid, err1 := p.Load(va, 0)
	size, err2 := p.Load(va+4, int64(rid))
	if err1 != nil || err2 != nil || size > maxPayload {
		return 0, false
	}
	id = int64(rid)
	p.span(cRead, id, m)
	need := hdrBytes + int(size)
	for n < need {
		k, err := p.Read(fd, va+hw.VAddr(n), need-n, id)
		if err != nil || k <= 0 {
			return id, false
		}
		n += k
	}
	if _, err := p.Write(fd, va, need, id); err != nil {
		return id, false
	}
	return id, true
}

// startToken blocks a client until the leader opens the measured section.
func startToken(p *probe, goR int) error {
	_, err := p.Read(goR, tokenVA, 4, 0)
	return err
}

// releaseClients lets n blocked clients start.
func releaseClients(p *probe, goW, n int) error {
	for i := 0; i < n; i++ {
		if _, err := p.Write(goW, tokenVA, 4, 0); err != nil {
			return err
		}
	}
	return nil
}

package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

const (
	frameVersion    = 1 // never '{': a JSON-lines peer fails at its first byte
	frameHeader     = 1 + 4 + 4
	maxFrame        = 1 << 28  // envelope and payload together, as a WAL record
	frameStep       = 1 << 20  // the most a payload read allocates ahead of its bytes
	maxKeptEnvelope = 16 << 10 // a Wire drops its envelope buffers once past this
)

// ErrFrame reports bytes that are not a frame: a peer on another format,
// a length over the cap, or an envelope that is not one JSON value.
var ErrFrame = errors.New("protocol: bad frame")

// message is a Request or a Response, whose binary field is the payload.
type message interface{ payload() *[]byte }

func (r *Request) payload() *[]byte {
	if r.Op == OpStoreArray {
		return &r.Array
	}
	return &r.Rows
}

func (r *Response) payload() *[]byte { return &r.Rows }

// Wire reads and writes one connection's frames, one at a time. It keeps
// nothing sized by the largest message: its envelope buffers go once one
// has grown past a small bound, and each payload it reads is a fresh
// slice the message owns (terms decoded from it share its memory).
type Wire struct {
	r   *bufio.Reader
	env io.LimitedReader // the envelope being read, over r
	dec *json.Decoder    // over env
	w   io.Writer
	out bytes.Buffer // the header and envelope being written
	enc *json.Encoder
}

// NewWire reads frames from r and writes them to w.
func NewWire(r io.Reader, w io.Writer) *Wire {
	c := &Wire{r: bufio.NewReader(r), w: w}
	c.env.R, c.enc = c.r, json.NewEncoder(&c.out)
	return c
}

// Write sends m as one frame, in one write when its payload is small.
func (c *Wire) Write(m message) error {
	defer func() {
		if c.out.Cap() > maxKeptEnvelope { // on every path: Encode may have grown it
			c.out = bytes.Buffer{}
		}
	}()
	body := *m.payload()
	c.out.Reset()
	c.out.Write(make([]byte, frameHeader))
	if err := c.enc.Encode(m); err != nil {
		return err
	}
	c.out.Truncate(c.out.Len() - 1) // Encode's newline
	env := c.out.Len() - frameHeader
	if err := checkLen(env, len(body)); err != nil {
		return err
	}
	h := c.out.Bytes()
	h[0] = frameVersion
	binary.LittleEndian.PutUint32(h[1:], uint32(env))
	binary.LittleEndian.PutUint32(h[5:], uint32(len(body)))
	if c.out.Len()+len(body) <= maxKeptEnvelope/4 { // grows out to no more than it keeps
		c.out.Write(body)
		body = nil
	}
	_, err := c.w.Write(c.out.Bytes())
	if err == nil && len(body) > 0 {
		_, err = c.w.Write(body)
	}
	return err
}

func checkLen[N uint32 | int](env, n N) error {
	if uint64(env)+uint64(n) > maxFrame {
		return fmt.Errorf("%w: a %d-byte envelope and a %d-byte payload exceed %d bytes", ErrFrame, env, n, maxFrame)
	}
	return nil
}

// Read reads one frame into m, which should be zero; after an error the
// stream is unusable. A peer that closed the connection between frames
// is io.EOF, inside one io.ErrUnexpectedEOF. Bytes that are not a frame
// are ErrFrame, a length over the cap before anything behind the header
// is read. A buffer grows ahead of the bytes that fill it by one step, or
// by what has arrived once that is more, so a length the bytes do not
// back sizes nothing; a payload of a step or less is one allocation.
func (c *Wire) Read(m message) error {
	h, err := c.r.Peek(frameHeader)
	if err != nil {
		if len(h) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if h[0] != frameVersion {
		return fmt.Errorf("%w: version byte %#02x, want %d", ErrFrame, h[0], frameVersion)
	}
	env, n := binary.LittleEndian.Uint32(h[1:]), binary.LittleEndian.Uint32(h[5:])
	if err := checkLen(env, n); err != nil {
		return err
	}
	c.r.Discard(frameHeader)
	if c.dec == nil {
		c.dec = json.NewDecoder(&c.env)
	}
	c.env.N = int64(env)
	start := c.dec.InputOffset()
	err = c.dec.Decode(m)
	stray := int64(env) - (c.dec.InputOffset() - start)
	if err != nil || stray != 0 || env > maxKeptEnvelope {
		c.dec = nil // its stream failed, or its buffer grew
	}
	switch err.(type) {
	case nil:
		if stray != 0 {
			return fmt.Errorf("%w: %d bytes after the envelope's value", ErrFrame, stray)
		}
	case *json.SyntaxError, *json.UnmarshalTypeError:
		return fmt.Errorf("%w: envelope: %v", ErrFrame, err)
	default: // a value cut short by its length, or by the connection
		if c.env.N == 0 {
			return fmt.Errorf("%w: envelope: %v", ErrFrame, err)
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	var b []byte // grows by a step, or by what it holds once that is more
	for len(b) < int(n) {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, len(b)+min(int(n)-len(b), max(frameStep, len(b)))), b...)
		}
		k, err := io.ReadFull(c.r, b[len(b):min(int(n), cap(b))])
		if b = b[:len(b)+k]; err == io.EOF {
			return io.ErrUnexpectedEOF
		} else if err != nil {
			return err
		}
	}
	*m.payload() = b
	return nil
}

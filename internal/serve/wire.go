package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"mime"
	"strconv"
	"strings"
)

// ResultMediaType names the binary result frame a client asks for in its
// Accept header:
//
//	uint32 little-endian length L
//	L bytes of the Result JSON with "out" omitted
//	len(Out) little-endian IEEE-754 float64 bit patterns
//
// The float tail is bit-exact by construction and is sized by the body,
// not by the header, so outputs whose dimension differs from the job's
// (the pyramid's last level) need no special case. A client that does not
// ask for the frame gets plain Result JSON.
const ResultMediaType = "application/vnd.gles2gpgpu.result"

// MaxJobBody bounds a job request body for the daemon and the router: the
// largest admissible job is two inline MaxJobSize² float64 matrices in
// JSON (~25 bytes per value), and anything bigger is rejected with 413.
const MaxJobBody = 2 * MaxJobSize * MaxJobSize * 32

// frameHeader is a Result as the frame's JSON header: the outer Out
// shadows the embedded one, so encoding omits it and a header that
// carries one anyway can be told apart on decoding.
type frameHeader struct {
	*Result
	Out json.RawMessage `json:"out,omitempty"`
}

// acceptsFrame reports whether an Accept header names ResultMediaType
// with a nonzero quality.
func acceptsFrame(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, params, err := mime.ParseMediaType(part)
		if err != nil || mt != ResultMediaType {
			continue
		}
		if q, err := strconv.ParseFloat(params["q"], 64); err == nil && q == 0 {
			continue
		}
		return true
	}
	return false
}

// encodeFrame returns r's binary frame.
func encodeFrame(r *Result) ([]byte, error) {
	header, err := json.Marshal(frameHeader{Result: r})
	if err != nil {
		return nil, err
	}
	dst := make([]byte, 0, 4+len(header)+8*len(r.Out))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(header)))
	dst = append(dst, header...)
	for _, v := range r.Out {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// DecodeResult decodes a job response body by its Content-Type: the
// binary frame for ResultMediaType, Result JSON for anything else (so a
// client that asks for the frame still reads a daemon that ignores its
// Accept header). Either way the result must hold N×N values with N in
// [0, MaxJobSize]. Malformed bodies are errors, never panics.
func DecodeResult(contentType string, body []byte) (*Result, error) {
	var res Result
	if mt, _, err := mime.ParseMediaType(contentType); err == nil && mt == ResultMediaType {
		if err := decodeFrame(body, &res); err != nil {
			return nil, err
		}
	} else if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("serve: result JSON: %w", err)
	}
	if res.N < 0 || res.N > MaxJobSize {
		return nil, fmt.Errorf("serve: result n=%d outside [0, %d]", res.N, MaxJobSize)
	}
	if len(res.Out) != res.N*res.N {
		return nil, fmt.Errorf("serve: result has %d values, want n*n = %d", len(res.Out), res.N*res.N)
	}
	return &res, nil
}

func decodeFrame(body []byte, res *Result) error {
	if len(body) < 4 {
		return errors.New("serve: result frame shorter than its length prefix")
	}
	l := uint64(binary.LittleEndian.Uint32(body))
	if l > uint64(len(body)-4) {
		return fmt.Errorf("serve: result frame header claims %d bytes, %d follow", l, len(body)-4)
	}
	header, tail := body[4:4+l], body[4+l:]
	if len(tail)%8 != 0 {
		return fmt.Errorf("serve: result frame tail of %d bytes is not whole float64s", len(tail))
	}
	h := frameHeader{Result: res}
	if err := json.Unmarshal(header, &h); err != nil {
		return fmt.Errorf("serve: result frame header: %w", err)
	}
	if h.Out != nil {
		return errors.New("serve: result frame header carries out")
	}
	res.Out = make([]float64, len(tail)/8)
	for i := range res.Out {
		res.Out[i] = math.Float64frombits(binary.LittleEndian.Uint64(tail[8*i:]))
	}
	return nil
}

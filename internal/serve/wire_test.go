package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// wireResult is a pipeline-shaped result whose Out holds the float64
// values a text encoding is most likely to mangle.
func wireResult() *Result {
	out := []float64{
		0, math.Copysign(0, -1), 1.0 / 3, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), 0.999, 1e-310,
	}
	return &Result{
		Out: out, N: 3, Device: "vc4", Pipeline: "pyramid",
		Stages:          []StageResult{{Name: "l1", VirtualTime: 7}, {Name: "l2", VirtualTime: 5}},
		PassesFused:     1,
		ReadbacksElided: 2,
		VirtualTime:     12, HostNanos: 3456, BatchSize: 2, BatchIndex: 1,
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// withoutOut is r with Out cleared, for comparing the header fields.
func withoutOut(r *Result) Result {
	c := *r
	c.Out = nil
	return c
}

func TestFrameRoundTripIsBitExact(t *testing.T) {
	want := wireResult()
	frame, err := encodeFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	l := binary.LittleEndian.Uint32(frame)
	header := frame[4 : 4+l]
	if bytes.Contains(header, []byte(`"out"`)) {
		t.Errorf("frame header carries out: %s", header)
	}
	// The header is the Result's JSON minus its "out" member, fields in
	// the same order.
	noOut := withoutOut(want)
	full, err := json.Marshal(&noOut)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(header), strings.Replace(string(full), `"out":null,`, "", 1); got != want {
		t.Errorf("frame header\n%s\nwant\n%s", got, want)
	}
	if got, want := len(frame), 4+int(l)+8*len(want.Out); got != want {
		t.Errorf("frame is %d bytes, want %d", got, want)
	}
	got, err := DecodeResult(ResultMediaType+"; charset=binary", frame)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got.Out, want.Out) {
		t.Errorf("Out = %v, want bits of %v", got.Out, want.Out)
	}
	if !reflect.DeepEqual(withoutOut(got), withoutOut(want)) {
		t.Errorf("decoded %+v, want %+v", withoutOut(got), withoutOut(want))
	}
}

func TestDecodeResultFallsBackToJSON(t *testing.T) {
	want := &Result{Out: []float64{0.25, 1.0 / 3, 0.5, 0.75}, N: 2, Device: "sgx", Kernel: "sum", HostNanos: 9}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []string{"application/json", "application/json; charset=utf-8", "", "text/plain"} {
		got, err := DecodeResult(ct, body)
		if err != nil {
			t.Fatalf("%q: %v", ct, err)
		}
		if !sameBits(got.Out, want.Out) || !reflect.DeepEqual(withoutOut(got), withoutOut(want)) {
			t.Errorf("%q: decoded %+v, want %+v", ct, got, want)
		}
	}
	// The JSON path holds results to the same shape as the frame.
	bad, _ := json.Marshal(&Result{Out: []float64{1, 2, 3}, N: 2})
	if _, err := DecodeResult("application/json", bad); err == nil {
		t.Error("JSON result with 3 values for n=2 decoded without error")
	}
}

func TestDecodeResultRejectsMalformedFrames(t *testing.T) {
	frame := func(r *Result) []byte {
		b, err := encodeFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	valid := frame(&Result{Out: []float64{1, 2, 3, 4}, N: 2, Kernel: "sum"})
	pastBody := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(pastBody, uint32(len(valid)))
	withOut := []byte(`{"out":[1],"n":1}`)
	withOut = append(binary.LittleEndian.AppendUint32(nil, uint32(len(withOut))), withOut...)
	withOut = binary.LittleEndian.AppendUint64(withOut, math.Float64bits(1))
	for name, body := range map[string][]byte{
		"empty":              nil,
		"truncated prefix":   valid[:3],
		"length past body":   pastBody,
		"ragged tail":        append(append([]byte(nil), valid...), 1, 2, 3),
		"count not n*n":      valid[:len(valid)-8],
		"negative n":         frame(&Result{Out: []float64{0}, N: -1}),
		"n over MaxJobSize":  frame(&Result{N: MaxJobSize + 1}),
		"header carries out": withOut,
		"header is not JSON": append([]byte{1, 0, 0, 0, '{'}, make([]byte, 8)...),
	} {
		if res, err := DecodeResult(ResultMediaType, body); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, res)
		}
	}
	if _, err := DecodeResult(ResultMediaType, valid); err != nil {
		t.Errorf("valid frame: %v", err)
	}
}

func TestAcceptsFrame(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                                     false,
		"application/json":                     false,
		"*/*":                                  false,
		ResultMediaType:                        true,
		"application/json, " + ResultMediaType: true,
		ResultMediaType + ";q=0.8, application/json;q=0.5": true,
		ResultMediaType + ";q=0":                           false,
		"APPLICATION/VND.GLES2GPGPU.RESULT":                true,
		"application/vnd.gles2gpgpu.resultx":               false,
	} {
		if got := acceptsFrame(accept); got != want {
			t.Errorf("acceptsFrame(%q) = %v, want %v", accept, got, want)
		}
	}
}

// FuzzDecodeResult feeds arbitrary bodies to the binary decoder, the
// daemon response parser every Go client runs. Properties: no panic; Out
// never holds more values than the body has bytes for; an accepted frame
// re-encodes to the same float tail byte for byte, and its re-encoding is
// a fixed point. The header is compared by value, not by bytes: JSON
// admits whitespace, field order and unknown fields, which the decoder
// must tolerate so a client reads a daemon whose Result has grown.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		res, err := DecodeResult(ResultMediaType, body)
		if err != nil {
			return
		}
		if len(res.Out) > len(body)/8 {
			t.Fatalf("decoded %d values from a %d-byte body", len(res.Out), len(body))
		}
		frame, err := encodeFrame(res)
		if err != nil {
			t.Fatalf("accepted result does not re-encode: %v", err)
		}
		tail := 8 * len(res.Out)
		if !bytes.Equal(frame[len(frame)-tail:], body[len(body)-tail:]) {
			t.Fatal("re-encoded float tail differs from the input's")
		}
		back, err := DecodeResult(ResultMediaType, frame)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(withoutOut(back), withoutOut(res)) {
			t.Fatalf("re-encoded header decodes to %+v, want %+v", withoutOut(back), withoutOut(res))
		}
		again, err := encodeFrame(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// BenchmarkResultEncoding compares the two response encodings on a
// saxpy n=128 result.
func BenchmarkResultEncoding(b *testing.B) {
	p := Params{Kernel: "saxpy", N: 128, Seed: 1}
	x, _ := p.Inputs()
	res := &Result{Out: x.Data, N: p.N, Device: "vc4", Kernel: p.Kernel}
	jsonBody, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := encodeFrame(res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json/encode", func(b *testing.B) {
		b.SetBytes(int64(len(jsonBody)))
		for i := 0; i < b.N; i++ {
			if err := json.NewEncoder(io.Discard).Encode(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/decode", func(b *testing.B) {
		b.SetBytes(int64(len(jsonBody)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeResult("application/json", jsonBody); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame/encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := encodeFrame(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame/decode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeResult(ResultMediaType, frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// endless is an unbounded stream of spaces.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestJobBodyOverCapIsRejected(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", io.LimitReader(endless{}, MaxJobBody+1))
	req.ContentLength = MaxJobBody + 1
	rec := httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("body of MaxJobBody+1 bytes: status %d, want %d", rec.Code, http.StatusRequestEntityTooLarge)
	}
}

// TestChunkedJobBodyOverCapIsRejected posts bodies without a
// Content-Length, so only the handler's MaxBytesReader can enforce the cap.
func TestChunkedJobBodyOverCapIsRejected(t *testing.T) {
	defer func(n int64) { maxJobBody = n }(maxJobBody)
	maxJobBody = 4 << 10

	s, err := New(Config{Devices: []string{"vc4"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	h := Handler(s)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != -1 {
			t.Errorf("request has Content-Length %d, want a chunked body", r.ContentLength)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"whitespace over the cap", io.LimitReader(endless{}, 2*maxJobBody), http.StatusRequestEntityTooLarge},
		{"malformed JSON under the cap", strings.NewReader(`{"kernel": "sum", "n": }`), http.StatusBadRequest},
	} {
		// io.MultiReader hides the body's length, so the client sends it
		// chunked.
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", io.MultiReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestServerClosesStalledRequestHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond

	s, err := New(Config{Devices: []string{"vc4"}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, l, s, 5*time.Second) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/jobs HTTP/1.1\r\nHost: gles2gpgpud\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server hangs up without answering; a read deadline error here
	// means it still holds the connection.
	if rest, err := io.ReadAll(conn); err != nil {
		t.Fatalf("half-sent request header: connection still open: %v", err)
	} else if len(rest) != 0 {
		t.Errorf("half-sent request header answered with %q", rest)
	}
}

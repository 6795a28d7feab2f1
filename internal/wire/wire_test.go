package wire

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"selfgo/internal/obj"
	"selfgo/internal/vm"
)

func decodeEval(t *testing.T, body string) (*EvalRequest, error) {
	t.Helper()
	return DecodeEvalRequest(strings.NewReader(body), Limits{})
}

func TestDecodeEvalRequestValid(t *testing.T) {
	req, err := decodeEval(t, `{"expr": "3 + 4", "budget": {"max_instrs": 1000}, "deadline_ms": 50}`)
	if err != nil {
		t.Fatal(err)
	}
	if req.Expr != "3 + 4" || req.Budget.MaxInstrs != 1000 || req.DeadlineMS != 50 {
		t.Fatalf("decoded %+v", req)
	}
	req, err = decodeEval(t, `{"entry": "fib:", "args": [10]}`)
	if err != nil {
		t.Fatal(err)
	}
	if req.Entry != "fib:" || len(req.Args) != 1 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestDecodeEvalRequestRejects(t *testing.T) {
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed", `{`, http.StatusBadRequest},
		{"trailing garbage", `{"expr":"1"} extra`, http.StatusBadRequest},
		{"neither expr nor entry", `{}`, http.StatusBadRequest},
		{"both expr and entry", `{"expr":"1","entry":"go"}`, http.StatusBadRequest},
		{"args with expr", `{"expr":"1","args":[1]}`, http.StatusBadRequest},
		{"arity mismatch", `{"entry":"fib:","args":[1,2]}`, http.StatusBadRequest},
		{"unary with args", `{"entry":"richards","args":[1]}`, http.StatusBadRequest},
		{"bad selector", `{"entry":"has space"}`, http.StatusBadRequest},
		{"negative budget", `{"expr":"1","budget":{"max_instrs":-1}}`, http.StatusBadRequest},
		{"negative deadline", `{"expr":"1","deadline_ms":-5}`, http.StatusBadRequest},
		{"huge expr", `{"expr":"` + strings.Repeat("x", DefaultMaxExpr+1) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		_, err := decodeEval(t, c.body)
		var re *RequestError
		if !errors.As(err, &re) {
			t.Errorf("%s: err = %v, want RequestError", c.name, err)
			continue
		}
		if re.Status != c.status {
			t.Errorf("%s: status = %d, want %d (%v)", c.name, re.Status, c.status, err)
		}
	}
}

func TestDecodeBodyTooLarge(t *testing.T) {
	big := `{"expr": "` + strings.Repeat("y", 2000) + `"}`
	_, err := DecodeEvalRequest(strings.NewReader(big), Limits{MaxBody: 100})
	var re *RequestError
	if !errors.As(err, &re) || re.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want 413", err)
	}
}

func TestDecodeRunRequest(t *testing.T) {
	req, err := DecodeRunRequest(strings.NewReader(`{"bench":"queens","deadline_ms":100}`), Limits{})
	if err != nil || req.Bench != "queens" {
		t.Fatalf("req=%+v err=%v", req, err)
	}
	for _, body := range []string{`{}`, `{"bench":"no/slash"}`, `{"bench":"x","budget":{"max_depth":-1}}`} {
		if _, err := DecodeRunRequest(strings.NewReader(body), Limits{}); err == nil {
			t.Errorf("body %s accepted", body)
		}
	}
}

// TestRunStatsDrift pins RunStatsJSON (and CompileJSON) to the VM's
// structs field-for-field: adding a counter to vm.RunStats without
// extending the wire encoding fails here, which is the whole point of
// sharing one encoding between selfrun -json and the server.
func TestRunStatsDrift(t *testing.T) {
	pairs := []struct {
		name     string
		vmType   reflect.Type
		wireType reflect.Type
	}{
		{"RunStats", reflect.TypeOf(vm.RunStats{}), reflect.TypeOf(RunStatsJSON{})},
		{"CompileRecord", reflect.TypeOf(vm.CompileRecord{}), reflect.TypeOf(CompileJSON{})},
	}
	for _, p := range pairs {
		if p.vmType.NumField() != p.wireType.NumField() {
			t.Errorf("%s: vm has %d fields, wire has %d — extend the wire encoding (and its constructor)",
				p.name, p.vmType.NumField(), p.wireType.NumField())
			continue
		}
		for i := 0; i < p.vmType.NumField(); i++ {
			vf, wf := p.vmType.Field(i), p.wireType.Field(i)
			if vf.Name != wf.Name {
				t.Errorf("%s field %d: vm %q vs wire %q", p.name, i, vf.Name, wf.Name)
			}
			if vf.Type != wf.Type {
				t.Errorf("%s.%s: vm type %v vs wire type %v", p.name, vf.Name, vf.Type, wf.Type)
			}
			if wf.Tag.Get("json") == "" {
				t.Errorf("%s.%s: missing json tag", p.name, wf.Name)
			}
		}
	}
}

// TestNewRunStatsRoundTrip: the constructor must copy every field (a
// struct-literal copy can silently drop one even when the shapes
// match).
func TestNewRunStatsRoundTrip(t *testing.T) {
	var st vm.RunStats
	rv := reflect.ValueOf(&st).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetInt(int64(i + 1))
	}
	js := NewRunStats(st)
	jv := reflect.ValueOf(js).Elem()
	for i := 0; i < jv.NumField(); i++ {
		if jv.Field(i).Int() != int64(i+1) {
			t.Errorf("field %s not copied: got %d, want %d",
				jv.Type().Field(i).Name, jv.Field(i).Int(), i+1)
		}
	}
	var cr vm.CompileRecord
	cv := reflect.ValueOf(&cr).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(int64(i + 1))
	}
	cj := NewCompile(cr)
	cjv := reflect.ValueOf(cj).Elem()
	for i := 0; i < cjv.NumField(); i++ {
		if cjv.Field(i).Int() != int64(i+1) {
			t.Errorf("compile field %s not copied", cjv.Type().Field(i).Name)
		}
	}
}

func TestNewResultAndError(t *testing.T) {
	res := NewResult(obj.Int(42), vm.RunStats{Cycles: 10, Instrs: 5}, vm.CompileRecord{Methods: 2}, 1500*time.Microsecond)
	if res.Int != 42 || res.Value != "42" || res.Run.Cycles != 10 || res.Compile.Methods != 2 {
		t.Fatalf("result %+v", res)
	}
	if res.CompileTimeMS != 1.5 {
		t.Fatalf("compile ms = %v", res.CompileTimeMS)
	}
	var back Result
	if err := json.Unmarshal(res.AppendJSON(nil), &back); err != nil {
		t.Fatal(err)
	}
	if back.Int != 42 || back.Run.Cycles != 10 {
		t.Fatalf("round trip %+v", back)
	}

	re := &vm.RuntimeError{Kind: vm.KindOutOfFuel, Msg: "out of fuel",
		Trace: []vm.TraceFrame{{Name: "lobby>>spin", PC: 3}}}
	ej := NewError(re)
	if ej.Kind != "outOfFuel" || len(ej.Backtrace) != 1 {
		t.Fatalf("error json %+v", ej)
	}
	if ej = NewError(errors.New("plain")); ej.Kind != "error" || ej.Message != "plain" {
		t.Fatalf("plain error json %+v", ej)
	}
}

package cloudml

import (
	"testing"

	"github.com/gaugenn/gaugenn/internal/android/dex"
)

func TestKnownAPIsWellFormed(t *testing.T) {
	apis := Known()
	if len(apis) != 14 {
		t.Fatalf("known APIs = %d, want the 14 Figure 15 families", len(apis))
	}
	for _, a := range apis {
		if a.Provider != "google" && a.Provider != "aws" {
			t.Errorf("%s: bad provider %q", a.Name, a.Provider)
		}
		if len(a.CallSites) == 0 {
			t.Errorf("%s: no call sites", a.Name)
		}
	}
}

func TestByNameAndPrimaryCallSite(t *testing.T) {
	a, ok := ByName("Vision/Face")
	if !ok || a.Provider != "google" {
		t.Fatalf("ByName: %+v %v", a, ok)
	}
	sig, ok := PrimaryCallSite("Lex (chatbot)")
	if !ok || sig == "" {
		t.Fatal("PrimaryCallSite(Lex) failed")
	}
	if _, ok := ByName("Nope"); ok {
		t.Fatal("unknown API should miss")
	}
	if _, ok := PrimaryCallSite("Nope"); ok {
		t.Fatal("unknown API call site should miss")
	}
}

func TestDetectSmaliThroughBaksmali(t *testing.T) {
	// Build a dex invoking two APIs, decompile it, detect.
	faceSig, _ := PrimaryCallSite("Vision/Face")
	lexSig, _ := PrimaryCallSite("Lex (chatbot)")
	d := &dex.Dex{Classes: []dex.Class{
		{Name: "Lcom/app/Main;", Methods: []dex.Method{
			{Name: "scan", Calls: []string{faceSig}},
		}},
		{Name: "Lcom/app/Bot;", Methods: []dex.Method{
			{Name: "chat", Calls: []string{lexSig}},
		}},
		{Name: "Lcom/app/Plain;", Methods: []dex.Method{
			{Name: "noop", Calls: []string{"Ljava/lang/Object;->toString()"}},
		}},
	}}
	smali := dex.Baksmali(d)
	dets := DetectSmali(smali)
	if len(dets) != 2 {
		t.Fatalf("detections = %v", dets)
	}
	if dets[0].API != "Lex (chatbot)" || dets[1].API != "Vision/Face" {
		t.Fatalf("APIs = %v", dets)
	}
	providers := map[string]string{}
	for _, det := range dets {
		providers[det.API] = det.Provider
	}
	if providers["Vision/Face"] != "google" || providers["Lex (chatbot)"] != "aws" {
		t.Fatalf("providers = %v", providers)
	}
}

func TestDetectSmaliDeduplicates(t *testing.T) {
	sig, _ := PrimaryCallSite("Vision/Barcode")
	files := map[string]string{
		"smali/A.smali": "invoke-virtual {v0}, " + sig + "\ninvoke-virtual {v0}, " + sig,
	}
	dets := DetectSmali(files)
	if len(dets) != 1 {
		t.Fatalf("detections = %v, want 1 (dedup per API+file)", dets)
	}
}

func TestDetectSmaliEmpty(t *testing.T) {
	if dets := DetectSmali(nil); len(dets) != 0 {
		t.Fatal("nil input should yield nothing")
	}
	if dets := DetectSmali(map[string]string{"a.smali": "nothing here"}); len(dets) != 0 {
		t.Fatal("plain smali should yield nothing")
	}
}

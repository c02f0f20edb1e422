package apk

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// Property: any collection of assets round-trips through the APK container
// byte-for-byte, regardless of content (compressed or stored).
func TestAPKAssetRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		b := NewBuilder(Manifest{Package: "p.p", VersionCode: 1, MinSDK: 21})
		want := map[string][]byte{}
		for i, p := range payloads {
			if i >= 6 {
				break
			}
			// Alternate stored (model-like) and compressed names.
			name := fmt.Sprintf("models/m%d.tflite", i)
			if i%2 == 1 {
				name = fmt.Sprintf("cfg/c%d.json", i)
			}
			b.AddAsset(name, p)
			want["assets/"+name] = p
		}
		apkBytes, err := b.Build()
		if err != nil {
			return false
		}
		r, err := Open(apkBytes)
		if err != nil {
			return false
		}
		for name, data := range want {
			got, err := r.ReadFile(name)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: manifests round-trip for arbitrary printable package names and
// versions.
func TestManifestRoundTripProperty(t *testing.T) {
	f := func(version uint16, sdk uint8) bool {
		m := Manifest{
			Package:     fmt.Sprintf("com.app.v%d", version),
			VersionCode: int(version),
			MinSDK:      int(sdk),
		}
		got, err := ParseManifest(m.Encode())
		if err != nil {
			return false
		}
		return got.Package == m.Package && got.VersionCode == m.VersionCode && got.MinSDK == m.MinSDK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

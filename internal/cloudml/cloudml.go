// Package cloudml knows the cloud ML API surfaces gaugeNN detects in app
// code (Section 3.2): Google Firebase ML / Google Cloud and Amazon AWS ML
// services. It maps each Figure 15 API family to the smali call signatures
// apps invoke, and provides the string-matching detector that runs over
// decompiled smali files.
package cloudml

import (
	"sort"
	"strings"
)

// API is one cloud ML API family (a Figure 15 row).
type API struct {
	// Provider is "google" or "aws".
	Provider string
	// Name is the Figure 15 display name, e.g. "Vision/Face".
	Name string
	// CallSites are the method references whose presence in smali
	// indicates use of this API.
	CallSites []string
}

// Known lists every detectable API family. The call-site prefixes follow
// the real SDK package layouts (Firebase ML Kit, Google Cloud client
// libraries and the AWS Android SDK).
var known = []API{
	{"google", "Vision/Face", []string{
		"Lcom/google/firebase/ml/vision/FirebaseVision;->getVisionFaceDetector()",
		"Lcom/google/mlkit/vision/face/FaceDetection;->getClient()",
	}},
	{"google", "Vision/Barcode", []string{
		"Lcom/google/firebase/ml/vision/FirebaseVision;->getVisionBarcodeDetector()",
		"Lcom/google/mlkit/vision/barcode/BarcodeScanning;->getClient()",
	}},
	{"google", "Vision/Text", []string{
		"Lcom/google/firebase/ml/vision/FirebaseVision;->getOnDeviceTextRecognizer()",
		"Lcom/google/mlkit/vision/text/TextRecognition;->getClient()",
	}},
	{"google", "Vision/Object Detection", []string{
		"Lcom/google/mlkit/vision/objects/ObjectDetection;->getClient()",
	}},
	{"google", "Vision/Image Labeler", []string{
		"Lcom/google/firebase/ml/vision/FirebaseVision;->getOnDeviceImageLabeler()",
		"Lcom/google/mlkit/vision/label/ImageLabeling;->getClient()",
	}},
	{"google", "Vision/custom model", []string{
		"Lcom/google/firebase/ml/custom/FirebaseModelInterpreter;->getInstance()",
	}},
	{"google", "Speech", []string{
		"Lcom/google/cloud/speech/v1/SpeechClient;->create()",
	}},
	{"google", "Natural Language/Translate", []string{
		"Lcom/google/mlkit/nl/translate/Translation;->getClient()",
	}},
	{"google", "Natural Language/LanguageID", []string{
		"Lcom/google/mlkit/nl/languageid/LanguageIdentification;->getClient()",
	}},
	{"google", "Natural Language/Smart Reply", []string{
		"Lcom/google/mlkit/nl/smartreply/SmartReply;->getClient()",
	}},
	{"aws", "Rekognition (face recognition)", []string{
		"Lcom/amazonaws/services/rekognition/AmazonRekognitionClient;-><init>",
	}},
	{"aws", "Polly (text-to-speech)", []string{
		"Lcom/amazonaws/services/polly/AmazonPollyPresigningClient;-><init>",
	}},
	{"aws", "Kinesis (video analytics)", []string{
		"Lcom/amazonaws/services/kinesisvideo/AWSKinesisVideoClient;-><init>",
	}},
	{"aws", "Lex (chatbot)", []string{
		"Lcom/amazonaws/mobileconnectors/lex/interactionkit/InteractionClient;-><init>",
	}},
}

// Known returns all detectable API families.
func Known() []API { return append([]API(nil), known...) }

// ByName returns the API family with the given Figure 15 name.
func ByName(name string) (API, bool) {
	for _, a := range known {
		if a.Name == name {
			return a, true
		}
	}
	return API{}, false
}

// PrimaryCallSite returns the first call signature of the named API — what
// the store generator plants in app dex code.
func PrimaryCallSite(name string) (string, bool) {
	a, ok := ByName(name)
	if !ok || len(a.CallSites) == 0 {
		return "", false
	}
	return a.CallSites[0], true
}

// Detection is one detected API usage.
type Detection struct {
	Provider string
	API      string
	// File is the smali file the match occurred in.
	File string
}

// DetectSmali string-matches the known call sites over decompiled smali
// files, exactly the apktool-based pipeline of Section 3.2. Results are
// deduplicated per (API, file) and sorted deterministically. It is a test
// reference: tests check extraction's zero-copy scanner against it, and
// no binary calls it.
func DetectSmali(files map[string]string) []Detection {
	var out []Detection
	seen := map[string]bool{}
	for file, body := range files {
		for _, api := range known {
			for _, sig := range api.CallSites {
				if strings.Contains(body, sig) {
					key := api.Name + "\x00" + file
					if !seen[key] {
						seen[key] = true
						out = append(out, Detection{Provider: api.Provider, API: api.Name, File: file})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].API != out[j].API {
			return out[i].API < out[j].API
		}
		return out[i].File < out[j].File
	})
	return out
}

// Package playstore simulates the Google Play Store surface gaugeNN crawls:
// a generated catalogue of top-free apps per category — with the DNN
// payloads, framework libraries, cloud-API call sites and churn calibrated
// to the paper's Tables 2-3 and Figures 4-5 — served over an HTTP API
// shaped like the store endpoints a device speaks to (top charts, details,
// purchase, delivery).
package playstore

// Category is a Google Play application category.
type Category string

// The 33 categories covered by the paper's figures.
const (
	Communication    Category = "COMMUNICATION"
	Finance          Category = "FINANCE"
	Photography      Category = "PHOTOGRAPHY"
	TravelAndLocal   Category = "TRAVEL_AND_LOCAL"
	Beauty           Category = "BEAUTY"
	Social           Category = "SOCIAL"
	Dating           Category = "DATING"
	Medical          Category = "MEDICAL"
	FoodAndDrink     Category = "FOOD_AND_DRINK"
	Shopping         Category = "SHOPPING"
	AutoAndVehicles  Category = "AUTO_AND_VEHICLES"
	Business         Category = "BUSINESS"
	Parenting        Category = "PARENTING"
	Productivity     Category = "PRODUCTIVITY"
	Lifestyle        Category = "LIFESTYLE"
	Education        Category = "EDUCATION"
	Sports           Category = "SPORTS"
	Entertainment    Category = "ENTERTAINMENT"
	HouseAndHome     Category = "HOUSE_AND_HOME"
	LibrariesAndDemo Category = "LIBRARIES_AND_DEMO"
	Tools            Category = "TOOLS"
	Game             Category = "GAME"
	HealthAndFitness Category = "HEALTH_AND_FITNESS"
	MapsAndNav       Category = "MAPS_AND_NAVIGATION"
	Personalization  Category = "PERSONALIZATION"
	VideoPlayers     Category = "VIDEO_PLAYERS"
	NewsAndMagazines Category = "NEWS_AND_MAGAZINES"
	ArtAndDesign     Category = "ART_AND_DESIGN"
	BooksAndRef      Category = "BOOKS_AND_REFERENCE"
	Events           Category = "EVENTS"
	Comics           Category = "COMICS"
	Family           Category = "FAMILY"
	AndroidWear      Category = "ANDROID_WEAR"
)

// Categories lists all store categories in deterministic order.
func Categories() []Category {
	return []Category{
		Communication, Finance, Photography, TravelAndLocal, Beauty, Social,
		Dating, Medical, FoodAndDrink, Shopping, AutoAndVehicles, Business,
		Parenting, Productivity, Lifestyle, Education, Sports, Entertainment,
		HouseAndHome, LibrariesAndDemo, Tools, Game, HealthAndFitness,
		MapsAndNav, Personalization, VideoPlayers, NewsAndMagazines,
		ArtAndDesign, BooksAndRef, Events, Comics, Family, AndroidWear,
	}
}

// churn calibrates a category's model population across the two snapshots:
// Total21 instances in the 2021 snapshot, of which Added arrived after the
// 2020 snapshot; Removed counts 2020 instances gone by 2021 (Figure 5).
//
// The table satisfies sum(Total21) = 1666, sum(Added) - sum(Removed) = 845
// so that the 2020 snapshot holds 821 models (Table 2), with COMMUNICATION
// the top net gainer and LIFESTYLE the top net loser, and PHOTOGRAPHY the
// top ML category of 2020 ("taking the lead from photography applications,
// which was the top ML-powered category of 2020").
type churn struct {
	Total21 int
	Added   int
	Removed int
}

var categoryChurn = map[Category]churn{
	Communication:    {171, 140, 5},
	Finance:          {158, 125, 5},
	Photography:      {152, 60, 15},
	TravelAndLocal:   {118, 64, 8},
	Beauty:           {102, 75, 8},
	Social:           {94, 62, 10},
	Dating:           {78, 42, 4},
	Medical:          {70, 63, 5},
	FoodAndDrink:     {64, 18, 10},
	Shopping:         {60, 40, 6},
	AutoAndVehicles:  {56, 45, 5},
	Business:         {52, 38, 5},
	Parenting:        {48, 38, 4},
	Productivity:     {44, 32, 6},
	Lifestyle:        {40, 8, 25},
	Education:        {36, 20, 4},
	Sports:           {32, 16, 4},
	Entertainment:    {28, 12, 4},
	HouseAndHome:     {24, 10, 3},
	LibrariesAndDemo: {22, 14, 4},
	Tools:            {20, 8, 5},
	Game:             {19, 10, 4},
	HealthAndFitness: {19, 14, 5},
	MapsAndNav:       {18, 12, 3},
	Personalization:  {18, 13, 3},
	VideoPlayers:     {17, 8, 3},
	NewsAndMagazines: {17, 8, 4},
	ArtAndDesign:     {16, 9, 3},
	BooksAndRef:      {16, 9, 2},
	Events:           {15, 8, 2},
	Comics:           {15, 9, 2},
	Family:           {14, 4, 12},
	AndroidWear:      {13, 5, 6},
}

// FrameworkShare is the 2021 model-instance mix of Table 2 / Section 4.3.
var frameworkShare21 = []struct {
	Name  string
	Count int
}{
	{"tflite", 1436},
	{"caffe", 176},
	{"ncnn", 46},
	{"tf", 5},
	{"snpe", 3},
}

// removedFrameworkShare approximates the 2020-only population's mix so that
// the reconstructed 2020 snapshot lands near Table 2's 81.6% TFLite.
var removedFrameworkShare = []struct {
	Name   string
	Weight float64
}{
	{"tflite", 0.66},
	{"caffe", 0.20},
	{"ncnn", 0.09},
	{"tf", 0.05},
}

// CloudAPI identifies a cloud ML API endpoint family (Figure 15's y-axis).
type CloudAPI struct {
	Provider string // "google" or "aws"
	Name     string
	// Weight is the relative app count in Figure 15.
	Weight int
}

// cloudAPIs approximates Figure 15's per-API app counts; the split between
// Google (452 apps) and AWS (72 apps) is enforced separately.
var cloudAPIs = []CloudAPI{
	{"google", "Vision/Barcode", 120},
	{"google", "Vision/Face", 112},
	{"google", "Vision/Text", 85},
	{"aws", "Lex (chatbot)", 40},
	{"aws", "Kinesis (video analytics)", 35},
	{"google", "Vision/Object Detection", 34},
	{"google", "Speech", 30},
	{"google", "Natural Language/Translate", 28},
	{"google", "Vision/custom model", 25},
	{"google", "Vision/Image Labeler", 22},
	{"google", "Natural Language/LanguageID", 15},
	{"google", "Natural Language/Smart Reply", 12},
	{"aws", "Polly (text-to-speech)", 12},
	{"aws", "Rekognition (face recognition)", 10},
}

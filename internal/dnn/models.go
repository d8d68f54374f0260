// Package dnn provides the DNN model catalog and the four workflow
// applications of the paper's evaluation (Tables 4 and 5), with
// per-slice-type performance profiles.
//
// The real system profiles PyTorch models on MIG slices; here the
// profiles are synthetic but calibrated so that every scheduling-visible
// property of the paper holds exactly: the minimum-slice matrix of
// Table 5, the sublinear GPC speedup that makes small slices more
// efficient per GPC, and the 10–40 ms pipeline transfer overheads of
// §7.3. See DESIGN.md §2 for the substitution argument.
package dnn

import (
	"fmt"
	"math"

	"fluidfaas/internal/mig"
)

// Variant is a function size variant (§6): batch size and memory scale.
type Variant int

// The three variants of each application.
const (
	Small Variant = iota
	Medium
	Large
	numVariants
)

// Variants lists all size variants.
var Variants = []Variant{Small, Medium, Large}

// String returns "small", "medium" or "large".
func (v Variant) String() string {
	switch v {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// ParseVariant converts a variant name back to a Variant.
func ParseVariant(s string) (Variant, error) {
	for _, v := range Variants {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("dnn: unknown variant %q", s)
}

// ModelID identifies a DNN model in the catalog.
type ModelID int

// The six models composing the paper's applications (Table 4).
const (
	SuperResolution   ModelID = iota // SRGAN [35]
	Deblur                           // DeblurGAN [5]
	Segmentation                     // DeepLabV3 [6, 22]
	Classification                   // ResNet-50 [2, 30]
	DepthEstimation                  // MiDaS [44]
	BackgroundRemoval                // U2-Net [43]
	numModels
)

// Models lists the whole catalog.
var Models = []ModelID{SuperResolution, Deblur, Segmentation,
	Classification, DepthEstimation, BackgroundRemoval}

// Alpha is the GPC-scaling exponent: execution time on a g-GPC slice is
// t(g) = t(7)·(7/g)^Alpha. Alpha < 1 captures the sublinear speedup of
// inference with more compute (memory-bandwidth-bound layers), which is
// what makes several small slices deliver more aggregate throughput than
// one big slice — the effect FluidFaaS exploits.
const Alpha = 0.4

// variantMult scales batch execution time per variant.
var variantMult = [numVariants]float64{1.0, 2.5, 4.5}

type modelInfo struct {
	name    string
	baseLat float64              // seconds on 7g.80gb, Small variant
	memGB   [numVariants]float64 // footprint per variant
	outMB   [numVariants]float64 // output tensor size per variant
}

var models = [numModels]modelInfo{
	SuperResolution:   {"super-resolution", 0.060, [numVariants]float64{3.0, 6.5, 13.0}, [numVariants]float64{12, 40, 72}},
	Deblur:            {"deblur", 0.050, [numVariants]float64{2.5, 6.0, 9.5}, [numVariants]float64{8, 32, 64}},
	Segmentation:      {"segmentation", 0.055, [numVariants]float64{3.5, 7.0, 14.0}, [numVariants]float64{8, 32, 64}},
	Classification:    {"classification", 0.015, [numVariants]float64{2.0, 4.5, 9.0}, [numVariants]float64{1, 4, 8}},
	DepthEstimation:   {"depth-estimation", 0.045, [numVariants]float64{3.0, 7.0, 14.0}, [numVariants]float64{8, 32, 64}},
	BackgroundRemoval: {"background-removal", 0.050, [numVariants]float64{3.0, 6.5, 13.0}, [numVariants]float64{8, 32, 64}},
}

func mustModel(m ModelID) ModelID {
	if m < 0 || m >= numModels {
		panic(fmt.Sprintf("dnn: invalid ModelID %d", int(m)))
	}
	return m
}

func mustVariant(v Variant) Variant {
	if v < 0 || v >= numVariants {
		panic(fmt.Sprintf("dnn: invalid Variant %d", int(v)))
	}
	return v
}

// String returns the model's name.
func (m ModelID) String() string { return models[mustModel(m)].name }

// MemGB returns the model's GPU memory footprint for a variant.
func (m ModelID) MemGB(v Variant) float64 {
	return models[mustModel(m)].memGB[mustVariant(v)]
}

// OutMB returns the model's output tensor size for a variant.
func (m ModelID) OutMB(v Variant) float64 {
	return models[mustModel(m)].outMB[mustVariant(v)]
}

// ExecTime returns the model's inference time on a slice profile, and
// whether the model fits the profile's memory at all.
func (m ModelID) ExecTime(v Variant, t mig.SliceType) (float64, bool) {
	if m.MemGB(v) > float64(t.MemGB()) {
		return 0, false
	}
	base := models[mustModel(m)].baseLat * variantMult[mustVariant(v)]
	return base * GPCSlowdown(t), true
}

// GPCSlowdown returns (7/g)^Alpha for a slice profile.
func GPCSlowdown(t mig.SliceType) float64 {
	return math.Pow(7.0/float64(t.GPCs()), Alpha)
}

// ExecProfile returns the model's full per-slice-type execution map,
// omitting profiles the model does not fit — the form dag.Node consumes.
func (m ModelID) ExecProfile(v Variant) map[mig.SliceType]float64 {
	out := make(map[mig.SliceType]float64, len(mig.SliceTypes))
	for _, t := range mig.SliceTypes {
		if d, ok := m.ExecTime(v, t); ok {
			out[t] = d
		}
	}
	return out
}

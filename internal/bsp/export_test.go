package bsp

// SampleStepNoise exposes the step sampler to the external benchmarks.
var SampleStepNoise = sampleStepNoise

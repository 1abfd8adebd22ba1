module bbmig/benchmark

go 1.23

require bbmig v0.0.0

replace bbmig => ../

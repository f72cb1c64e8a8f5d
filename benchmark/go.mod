module ned/benchmark

go 1.24

require ned v0.0.0

replace ned => ../

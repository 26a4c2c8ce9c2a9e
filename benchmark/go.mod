module batchmaker/benchmark

go 1.22

require batchmaker v0.0.0

replace batchmaker => ../

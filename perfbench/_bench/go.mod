module loom/perfbench

go 1.22

require loom v0.0.0

replace loom => ../..

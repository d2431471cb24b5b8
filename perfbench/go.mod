module rjoin/perfbench

go 1.24

require rjoin v0.0.0

replace rjoin => ../

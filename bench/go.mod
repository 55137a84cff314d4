module sbqa/bench

go 1.24

require sbqa v0.0.0

replace sbqa => ../

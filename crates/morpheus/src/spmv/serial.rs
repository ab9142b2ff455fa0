//! Tests of [`spmv_serial`](super::spmv_serial)'s write contract: it
//! defines every entry of `y`, whatever `y` held before.

mod tests {
    use crate::convert::ConvertOptions;
    use crate::dynamic::DynamicMatrix;
    use crate::format::ALL_FORMATS;
    use crate::spmv::spmv_serial;
    use crate::test_util::random_coo;

    #[test]
    fn kernels_overwrite_stale_y() {
        let base = DynamicMatrix::from(random_coo::<f64>(10, 10, 30, 8));
        let x = vec![2.0; 10];
        for &f in &ALL_FORMATS {
            let m = base.to_format(f, &ConvertOptions::default()).unwrap();
            let mut clean = vec![0.0; 10];
            spmv_serial(&m, &x, &mut clean).unwrap();
            let mut dirty = vec![999.0; 10];
            spmv_serial(&m, &x, &mut dirty).unwrap();
            assert_eq!(clean, dirty, "{f}");
        }
    }
}

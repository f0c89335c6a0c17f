package repro.spark

import repro.{SparkSpec, TestUtil}
import repro.core.PdxLayout
import repro.data.VectorData

class PdxSparkSpec extends SparkSpec {

  private lazy val ds = VectorData.generate(
    VectorData.DatasetSpec("spark", 24, 800, 6, skewed = false, clusters = 8, seed = 500))

  test("toVectorDF makes numPartitions partitions and rejects a non-positive count") {
    assert(PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 3).rdd.getNumPartitions == 3)
    for (parts <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](PdxSpark.toVectorDF(spark, ds.vectors, parts))
      assert(e.getMessage.contains(s"numPartitions must be positive, got $parts"))
    }
  }

  test("pack produces blocks covering every vector exactly once") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 4)
    val blocks = PdxSpark.pack(df, blockSize = 64).collect()
    assert(blocks.map(_.n).sum == 800)
    assert(blocks.forall(_.n <= 64))
    assert(blocks.forall(_.d == 24))
    val ids = blocks.flatMap(_.ids).sorted
    assert(ids.toSeq == (0L until 800L))
  }

  test("packed blocks reconstruct the original vectors") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 3)
    val blocks = PdxSpark.pack(df, blockSize = 32).collect()
    blocks.foreach { row =>
      val b = row.toBlock
      PdxLayout.unpack(b).foreach { case (id, v) =>
        assert(v.toSeq == ds.vectors(id.toInt).toSeq, s"vector $id corrupted")
      }
    }
  }

  test("pack respects suffix-norm request") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors.take(100), numPartitions = 2)
    val plain = PdxSpark.pack(df, 64).collect()
    assert(plain.forall(_.suffix.isEmpty))
    val withS = PdxSpark.pack(df, 64, withSuffixNorms = true).collect()
    assert(withS.forall(r => r.suffix.length == r.n * (r.d + 1)))
  }

  for (parts <- Seq(1, 4)) {
    test(s"distributed knnExact equals local brute force ($parts partitions)") {
      val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = parts)
      val blocks = PdxSpark.pack(df, 64).cache()
      ds.queries.foreach { q =>
        val res = PdxSpark.knnExact(blocks, q, 10).collect()
          .map(r => (r.getLong(0), r.getDouble(1).toFloat)).toSeq
        TestUtil.assertExactKnn(res, ds.vectors, q, 10)
      }
      blocks.unpersist()
    }
  }

  test("distributed knnBond equals knnExact (exact pruning under parallelism)") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 4)
    val blocks = PdxSpark.pack(df, 64).cache()
    ds.queries.foreach { q =>
      val exact = PdxSpark.knnExact(blocks, q, 10).collect().map(_.getLong(0)).toSet
      val bond = PdxSpark.knnBond(blocks, q, 10).collect().map(_.getLong(0)).toSet
      assert(bond == exact)
    }
    blocks.unpersist()
  }

  test("duplicate vectors: knnExact and knnBond return the k smallest ids (1 and 3 partitions)") {
    // Integer coordinates make all distances exactly equal; rows arrive in
    // descending id order, so a first-seen-wins heap would keep large ids.
    import spark.implicits._
    val (n, d, k) = (300, 16, 10)
    val v = Array.tabulate(d)(j => (j % 5).toFloat)
    val q = Array.tabulate(d)(j => (j % 3).toFloat)
    for (parts <- Seq(1, 3)) {
      val rows = (n - 1 to 0 by -1).map(i => (i.toLong, v))
      val df = spark.sparkContext.parallelize(rows, parts).toDF("id", "vec")
      val blocks = PdxSpark.pack(df, 64).cache()
      assert(PdxSpark.knnExact(blocks, q, k).collect().map(_.getLong(0)).toSeq == (0L until k))
      assert(PdxSpark.knnBond(blocks, q, k).collect().map(_.getLong(0)).toSeq == (0L until k))
      blocks.unpersist()
    }
  }

  test("knnExact and knnBond reject a wrong-length query and a non-positive k") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors.take(200), numPartitions = 2)
    val blocks = PdxSpark.pack(df, 64).cache()
    val q = VectorData.gaussian(1, 25, seed = 3).head
    def messages(e: Throwable): String =
      Iterator.iterate(e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString("\n")
    val exact = intercept[Exception](PdxSpark.knnExact(blocks, q, 10).collect())
    assert(messages(exact).contains("query has 25 dimensions but the block has 24"))
    val bond = intercept[Exception](PdxSpark.knnBond(blocks, q, 10).collect())
    assert(messages(bond).contains("query has 25 dimensions but the block has 24"))
    intercept[IllegalArgumentException](PdxSpark.knnExact(blocks, ds.queries.head, 0))
    intercept[IllegalArgumentException](PdxSpark.knnBond(blocks, ds.queries.head, 0))
    blocks.unpersist()
  }

  test("rangeCount matches a local count") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 4)
    val blocks = PdxSpark.pack(df, 64)
    val q = ds.queries.head
    val dists = ds.vectors.map(v => repro.core.Kernels.l2Ref(v, q))
    val r2 = dists.sorted.apply(100) + 1e-6 // radius capturing ~101 vectors
    val got = PdxSpark.rangeCount(blocks, q, r2).collect().head.getLong(0)
    val expect = dists.count(_ < r2)
    assert(got == expect, s"got $got expect $expect")
  }

  test("pdx_block_knn UDF returns the block-local top-k through Spark SQL") {
    PdxSpark.registerUdf(spark)
    val vecs = ds.vectors.take(200)
    val df = PdxSpark.toVectorDF(spark, vecs, numPartitions = 2)
    PdxSpark.pack(df, 64).createOrReplaceTempView("pdx_blocks")
    val q = ds.queries.head
    val qSql = q.map(x => s"CAST($x AS FLOAT)").mkString("array(", ", ", ")")
    val res = spark.sql(
      s"""SELECT r.col._1 AS id FROM (
         |  SELECT explode(pdx_block_knn(data, n, d, ids, $qSql, 10)) AS col FROM pdx_blocks
         |) r
         |ORDER BY r.col._2, r.col._1 LIMIT 10""".stripMargin
    ).collect().map(_.getLong(0)).toSet
    val gt = VectorData.groundTruth(vecs.toIndexedSeq, IndexedSeq(q), 10).head.toSet
    assert(res == gt)
  }
}

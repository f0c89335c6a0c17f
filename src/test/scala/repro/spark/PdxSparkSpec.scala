package repro.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkEnv
import org.apache.spark.repro.ListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.execution.LocalTableScanExec
import repro.{SparkSpec, TestUtil}
import repro.core.{Kernels, PdxBlock}
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
      (0 until b.n).foreach { i =>
        val id = b.ids(i)
        assert(b.vectorAt(i).toSeq == ds.vectors(id.toInt).toSeq, s"vector $id corrupted")
      }
    }
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

  /** Runs `body` and returns its value with the number of Spark jobs it
    * started and the number of tasks that ended.
    */
  private def jobsOf[A](body: => A): (A, Int, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val tasks = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()
    }
    ListenerBus.drain(sc)
    sc.addSparkListener(listener)
    val value = try { val v = body; ListenerBus.drain(sc); v } finally sc.removeSparkListener(listener)
    (value, jobs.get, tasks.get)
  }

  // knnExact and knnBond share globalTopK.
  for ((name, knn) <- Seq[(String, (Dataset[PdxBlockRow], Array[Float], Int) => DataFrame)](
         "knnBond" -> PdxSpark.knnBond, "knnExact" -> PdxSpark.knnExact)) {
    test(s"a $name query is one Spark job and its answer is a local table") {
      val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 4)
      val blocks = PdxSpark.pack(df, 64).cache()
      blocks.count()
      val q = ds.queries.head
      knn(blocks, q, 10).collect() // the first query plans blocks.queryExecution.toRdd
      val ((res, rows), jobs, tasks) = jobsOf { val res = knn(blocks, q, 10); (res, res.collect()) }
      assert(jobs == 1)
      val partitions = blocks.queryExecution.toRdd.getNumPartitions
      assert(partitions == 4 && tasks == partitions, s"$tasks tasks over $partitions partitions")
      assert(res.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec],
             res.queryExecution.executedPlan.toString)
      TestUtil.assertExactKnn(rows.map(r => (r.getLong(0), r.getDouble(1).toFloat)).toSeq, ds.vectors, q, 10)
      blocks.unpersist()
    }
  }

  test("the query task is a named class that ClosureCleaner passes over and Spark's closure serializer round-trips") {
    // ClosureCleaner acts only on a synthetic `$$Lambda` class or a class
    // whose name holds `$anonfun$`; for any other function object it parses
    // no bytecode.
    val vecs = ds.vectors.take(200)
    val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, vecs, numPartitions = 3), 64).cache()
    val rows = blocks.queryExecution.toRdd.map(_.copy()).collect()
    val serializer = SparkEnv.get.closureSerializer.newInstance()
    def bits(topK: IndexedSeq[(Long, Float)]) =
      topK.map { case (id, dist) => (id, java.lang.Float.floatToRawIntBits(dist)) }
    for (q <- ds.queries; bond <- Seq(false, true)) {
      val task = new PartitionKnn(blocks.schema, q, 10, bond)
      val cls = task.getClass
      assert(!cls.isSynthetic && !cls.getName.contains("$$Lambda") && !cls.getName.contains("$anonfun$"), cls.getName)
      val copy = serializer.deserialize[PartitionKnn](serializer.serialize(task))
      val want = task(null, rows.iterator)
      assert(bits(copy(null, rows.iterator)) == bits(want))
      TestUtil.assertExactKnn(want, vecs, q, 10)
    }
    blocks.unpersist()
  }

  test("BlockDecoder decodes each cached row into reused arrays equal to its PdxBlockRow; knnExact and knnBond stay exact") {
    // 200 vectors in 3 partitions of blocks of 64: each partition holds one
    // full block and one short one, so decoding the rows in order regrows
    // the arrays at every block.
    val vecs = ds.vectors.take(200)
    val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, vecs, numPartitions = 3), 64).cache()
    val rows = blocks.queryExecution.toRdd.map(_.copy()).collect()
    val sizes = rows.map(_.getInt(blocks.schema.fieldIndex("n"))).toSeq
    assert(sizes.sum == 200 && sizes.count(_ == 64) == 3, sizes)
    assert(sizes.sliding(2).forall { case Seq(a, b) => (a == 64) != (b == 64) }, sizes)
    val fromRow = ExpressionEncoder[PdxBlockRow]().resolveAndBind().createDeserializer()
    val decoder = new BlockDecoder(blocks.schema)
    var prev: PdxBlock = null
    rows.foreach { row =>
      val got = decoder.decode(row)
      val want = fromRow(row).toBlock
      assert(got.n == want.n && got.d == want.d)
      assert(java.util.Arrays.equals(got.ids, want.ids))
      assert(java.util.Arrays.equals(got.data, want.data))
      assert(java.util.Arrays.equals(got.means, want.means))
      assert(got.suffixSqNorms.isEmpty)
      if (prev != null) {
        assert((got.ids eq prev.ids) == (got.n == prev.n))
        assert((got.data eq prev.data) == (got.n == prev.n))
        assert(got.means eq prev.means)
      }
      prev = got
    }
    ds.queries.foreach { q =>
      for (res <- Seq(PdxSpark.knnExact(blocks, q, 10), PdxSpark.knnBond(blocks, q, 10)))
        TestUtil.assertExactKnn(res.collect().map(r => (r.getLong(0), r.getDouble(1).toFloat)).toSeq, vecs, q, 10)
    }
    blocks.unpersist()
  }

  test("BlockDecoder rejects a row whose arrays do not hold n, n·d and d values") {
    val toRow = ExpressionEncoder[PdxBlockRow]().createSerializer()
    val schema = ExpressionEncoder[PdxBlockRow]().schema
    val good = PdxBlockRow(Array(1L, 2L), 2, 3, Array.tabulate(6)(_.toFloat), Array(0f, 1f, 2f))
    for ((row, msg) <- Seq(
           good.copy(ids = Array(1L)) -> "cached block column ids holds 1 values, expected 2",
           good.copy(data = Array(1f)) -> "cached block column data holds 1 values, expected 6",
           good.copy(means = Array(1f)) -> "cached block column means holds 1 values, expected 3")) {
      val e = intercept[IllegalArgumentException](new BlockDecoder(schema).decode(toRow(row)))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
  }

  test("empty partitions: 5 vectors in 8 partitions answer k = 10 with all 5 ids in (dist, id) order") {
    val vecs = ds.vectors.take(5)
    val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, vecs, numPartitions = 8), 64).cache()
    assert(blocks.rdd.getNumPartitions == 8)
    ds.queries.foreach { q =>
      val ref = vecs.indices.map(i => (Kernels.l2Ref(vecs(i), q), i.toLong)).sorted
      for (res <- Seq(PdxSpark.knnExact(blocks, q, 10), PdxSpark.knnBond(blocks, q, 10))) {
        val rows = res.collect()
        assert(rows.map(_.getLong(0)).toSeq == ref.map(_._2))
        rows.zip(ref).foreach { case (r, (dist, _)) =>
          assert(math.abs(r.getDouble(1) - dist) <= 1e-3 * (1 + dist))
        }
      }
    }
    blocks.unpersist()
  }

  test("pack rejects a non-positive blockSize on the driver, before any job") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors.take(100), numPartitions = 2)
    for (bs <- Seq(0, -1)) {
      val (e, jobs, _) = jobsOf(intercept[IllegalArgumentException](PdxSpark.pack(df, bs)))
      assert(e.getMessage.contains(s"blockSize must be positive, got $bs"), e.getMessage)
      assert(jobs == 0)
    }
  }

  test("knnExact and knnBond reject a NaN or infinite query value on the driver, before any job") {
    val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, ds.vectors.take(200), numPartitions = 2), 64).cache()
    val firstAndLast = for (pos <- Seq(0, 23); bad <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity))
      yield pos -> bad
    for ((pos, bad) <- (3 -> Float.NaN) +: firstAndLast) {
      val q = ds.queries.head.clone()
      q(pos) = bad
      val (_, jobs, _) = jobsOf {
        for (query <- Seq[Array[Float] => Any](PdxSpark.knnExact(blocks, _, 10), PdxSpark.knnBond(blocks, _, 10))) {
          val e = intercept[IllegalArgumentException](query(q))
          assert(e.getMessage.contains(s"query value at position $pos is $bad"), e.getMessage)
        }
      }
      assert(jobs == 0)
    }
    blocks.unpersist()
  }

  test("pack rejects a NaN or infinite vector value, and the failed action names the vector") {
    for ((pos, bad) <- Seq(5 -> Float.NaN, 0 -> Float.PositiveInfinity, 23 -> Float.NegativeInfinity)) {
      val vecs = ds.vectors.take(100).toVector
      val v = vecs(17).clone()
      v(pos) = bad
      val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, vecs.updated(17, v), numPartitions = 2), 32)
      val msg = s"vector 17 has the non-finite value $bad at position $pos"
      for (action <- Seq[() => Any](() => blocks.collect(), () => PdxSpark.knnExact(blocks, ds.queries.head, 10))) {
        val e = intercept[Exception](action())
        val chain = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
        assert(chain.exists(t => t.getMessage != null && t.getMessage.contains(msg)), e.toString)
      }
    }
  }

  test("blocks cached before their first query are read from the cache; cached after it, every query packs them again") {
    val session = spark
    import session.implicits._
    val vecs = ds.vectors.take(200)
    val q = ds.queries.head
    val packed = spark.sparkContext.longAccumulator("rows packed")
    // Counted after toVectorDF's shuffle, so packing the blocks again reads the rows again.
    val source = PdxSpark.toVectorDF(spark, vecs, numPartitions = 2).as[(Long, Array[Float])]
      .map { r => packed.add(1); r }.toDF("id", "vec")
    def rowsPackedByQuery(blocks: Dataset[PdxBlockRow]): Long = {
      packed.reset()
      val rows = PdxSpark.knnBond(blocks, q, 10).collect()
      TestUtil.assertExactKnn(rows.map(r => (r.getLong(0), r.getDouble(1).toFloat)).toSeq, vecs, q, 10)
      packed.value
    }

    val cachedFirst = PdxSpark.pack(source, 64).cache()
    assert(rowsPackedByQuery(cachedFirst) == 200) // the first query fills the cache
    assert(rowsPackedByQuery(cachedFirst) == 0)
    assert(rowsPackedByQuery(cachedFirst) == 0)
    cachedFirst.unpersist()

    // blocks.queryExecution.toRdd is planned by the first query, without the cache that comes later.
    val cachedLate = PdxSpark.pack(source, 64)
    assert(rowsPackedByQuery(cachedLate) == 200)
    cachedLate.cache()
    assert(rowsPackedByQuery(cachedLate) == 200)
    assert(rowsPackedByQuery(cachedLate) == 200)
    cachedLate.unpersist()
  }

  test("pdx_block_knn UDF returns the block-local top-k through Spark SQL") {
    PdxSpark.registerUdf(spark)
    val vecs = ds.vectors.take(200)
    val df = PdxSpark.toVectorDF(spark, vecs, numPartitions = 2)
    PdxSpark.pack(df, 64).createOrReplaceTempView("pdx_blocks")
    val q = ds.queries.head
    val qSql = q.map(x => s"CAST($x AS FLOAT)").mkString("array(", ", ", ")")
    val knn = spark.sql(s"SELECT pdx_block_knn(data, n, d, ids, $qSql, 10) AS knn FROM pdx_blocks")
    assert(knn.schema("knn").dataType.simpleString == "array<struct<id:bigint,dist:double>>")
    knn.createOrReplaceTempView("pdx_block_knns")
    val res = spark.sql(
      """SELECT r.col.id AS id FROM (
        |  SELECT explode(knn) AS col FROM pdx_block_knns
        |) r
        |ORDER BY r.col.dist, r.col.id LIMIT 10""".stripMargin
    ).collect().map(_.getLong(0)).toSet
    val gt = VectorData.groundTruth(vecs.toIndexedSeq, IndexedSeq(q), 10).head.toSet
    assert(res == gt)
  }

  test("pdx_block_knn UDF rejects a NaN query value, naming its position") {
    PdxSpark.registerUdf(spark)
    PdxSpark.pack(PdxSpark.toVectorDF(spark, ds.vectors.take(100), numPartitions = 2), 64)
      .createOrReplaceTempView("pdx_blocks_nan")
    val q = ds.queries.head.clone()
    q(23) = Float.NaN
    val qSql = q.map(x => s"CAST('$x' AS FLOAT)").mkString("array(", ", ", ")")
    val e = intercept[Exception] {
      spark.sql(s"SELECT pdx_block_knn(data, n, d, ids, $qSql, 10) FROM pdx_blocks_nan").collect()
    }
    val chain = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(chain.exists(t => t.getMessage != null &&
                          t.getMessage.contains("query value at position 23 is NaN")), e.toString)
  }
}

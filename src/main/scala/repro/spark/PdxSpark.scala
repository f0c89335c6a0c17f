package repro.spark

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.UnsafeArrayData
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import org.apache.spark.unsafe.Platform
import repro.core._
import repro.prune.Bond
import scala.jdk.CollectionConverters._

/** One PDX block as a Spark row — the per-partition columnar block format
  * (repro-hint layering: blocks ↔ Parquet rowgroups, built and scanned
  * inside executors). `data` is dimension-major with stride `n`. No Spark
  * query uses a BSA bound, so the row carries no suffix norms.
  */
final case class PdxBlockRow(
    ids: Array[Long],
    n: Int,
    d: Int,
    data: Array[Float],
    means: Array[Float]
) {
  def toBlock: PdxBlock = PdxBlock(ids, n, d, data, means, Array.emptyFloatArray)
}

object PdxBlockRow {
  def from(b: PdxBlock): PdxBlockRow = PdxBlockRow(b.ids, b.n, b.d, b.data, b.means)
}

/** Decodes cached [[PdxBlockRow]]s, as the blocks' `queryExecution.toRdd`
  * yields them, into one set of `ids`, `data` and `means` arrays that every
  * decoded block reuses: a task scans its blocks with no array allocated per
  * block. The arrays are replaced only when `n`, `d` or `n·d` changes, at a
  * partition's short last block. Each column is one bulk copy out of the
  * row's `UnsafeArrayData`. Columns are found by name in the blocks'
  * `schema`; a column that does not hold its `n`, `n·d` or `d` values
  * fails before it is copied. The block that [[decode]] returns is valid only
  * until its next call, which is the contract of `PdxSearcher.search` and
  * `LinearScan.pdxKnn`. One decoder per task.
  */
private[spark] final class BlockDecoder(schema: StructType) {
  private val idsCol = schema.fieldIndex("ids")
  private val nCol = schema.fieldIndex("n")
  private val dCol = schema.fieldIndex("d")
  private val dataCol = schema.fieldIndex("data")
  private val meansCol = schema.fieldIndex("means")
  private var ids = Array.emptyLongArray
  private var data = Array.emptyFloatArray
  private var means = Array.emptyFloatArray

  def decode(row: InternalRow): PdxBlock = {
    val n = row.getInt(nCol)
    val d = row.getInt(dCol)
    if (ids.length != n) ids = new Array[Long](n)
    if (data.length != n * d) data = new Array[Float](n * d)
    if (means.length != d) means = new Array[Float](d)
    copy(row, idsCol, "ids", ids, Platform.LONG_ARRAY_OFFSET, n, 8)
    copy(row, dataCol, "data", data, Platform.FLOAT_ARRAY_OFFSET, n * d, 4)
    copy(row, meansCol, "means", means, Platform.FLOAT_ARRAY_OFFSET, d, 4)
    PdxBlock(ids, n, d, data, means, Array.emptyFloatArray)
  }

  /** Copies the `len` elements of `width` bytes of column `col` into `dst`.
    * A planned Dataset yields unsafe rows, whose arrays are `UnsafeArrayData`.
    */
  private def copy(row: InternalRow, col: Int, name: String, dst: AnyRef, dstOffset: Long,
                   len: Int, width: Int): Unit = {
    val a = row.getArray(col).asInstanceOf[UnsafeArrayData]
    require(a.numElements == len, s"cached block column $name holds ${a.numElements} values, expected $len")
    Platform.copyMemory(a.getBaseObject, a.getBaseOffset + UnsafeArrayData.calculateHeaderPortionInBytes(len),
                        dst, dstOffset, len.toLong * width)
  }
}

/** One partition's share of a `knnExact` or `knnBond` query: the task
  * function that `PdxSpark` hands `SparkContext.runJob`. It decodes the
  * partition's cached rows with one [[BlockDecoder]], runs
  * `LinearScan.pdxKnn` or, with `bond`, PDXearch with PDX-BOND in
  * distance-to-means order, and returns the partition's top-k sorted by
  * (dist, id).
  *
  * It is a named class, not a lambda: `ClosureCleaner` parses, with ASM, the
  * bytecode of the class that defines any lambda an action is given, on
  * every call (for `RDD.collect`'s own lambda that class is `RDD`), but it
  * passes over a function object that is not a closure. The DAGScheduler
  * still serializes the task with Spark's closure serializer, so a task
  * that cannot be serialized still fails its job with "Task not
  * serializable"; it holds only the blocks' schema, the query, `k` and which
  * search to run.
  */
private[spark] final class PartitionKnn(schema: StructType, query: Array[Float], k: Int, bond: Boolean)
    extends ((TaskContext, Iterator[InternalRow]) => IndexedSeq[(Long, Float)]) with Serializable {

  def apply(context: TaskContext, rows: Iterator[InternalRow]): IndexedSeq[(Long, Float)] = {
    val decoder = new BlockDecoder(schema)
    val blocks = rows.map(decoder.decode)
    val heap =
      if (bond) new PdxSearcher(k).search(blocks, query, new Bond(query.length, Bond.DistanceToMeans))
      else LinearScan.pdxKnn(blocks, query, k)
    heap.sorted
  }
}

/** One neighbour in a `pdx_block_knn` result: SQL `struct<id: bigint, dist: double>`. */
final case class KnnHit(id: Long, dist: Double)

/** Spark-side PDX: pack a vector DataFrame into per-partition PDX blocks
  * and run dimension-by-dimension KNN inside executors.
  *
  * Layering (DESIGN.md §3): the layout is a `Dataset[PdxBlockRow]` built by
  * `mapPartitions` (i); a query is one `SparkContext.runJob` over the
  * blocks' internal rows (`queryExecution.toRdd`), whose task function is
  * the named class [[PartitionKnn]], not a lambda, so that `ClosureCleaner`
  * parses no class per query (`RDD.collect` hands `runJob` a lambda defined
  * in `RDD`, whose whole class the cleaner would read). Each task decodes
  * its rows into one reused set of arrays ([[BlockDecoder]]), runs the
  * PDXearch core and returns its top-k, and the driver merges those k-lists
  * with a [[KnnHeap]] by (dist, id) (ii); and the same scan is exposed to
  * Spark SQL as the `pdx_block_knn` UDF (iii). Exact variants stay exact
  * under this parallelization: each partition runs its own START phase, and
  * the merge of per-partition exact top-k is the exact top-k.
  *
  * Cache the blocks (`pack(...).cache()`) before their first query: the
  * queries run on `blocks.queryExecution.toRdd`, which Spark plans once per
  * Dataset, so blocks cached only after their first query are packed again
  * by every query.
  */
object PdxSpark {

  /** (id LONG, vec ARRAY<FLOAT>) DataFrame from local vectors, ids 0…n−1,
    * repartitioned into `numPartitions` partitions. The shuffle stays: a
    * DataFrame over `sparkContext.parallelize` keeps each slice of the rows
    * in its partition object, which every later task over the cached blocks
    * then ships (17 MB a task for 100 000 × 128 floats in 3 partitions;
    * warm `knnBond` p50 +60%).
    */
  def toVectorDF(spark: SparkSession, vecs: Seq[Array[Float]],
                 numPartitions: Int): DataFrame = {
    require(numPartitions > 0, s"numPartitions must be positive, got $numPartitions")
    import spark.implicits._
    vecs.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toDF("id", "vec").repartition(numPartitions)
  }

  /** Pack a vector DataFrame into PDX blocks, one stream of blocks per
    * partition. A non-positive `blockSize` fails here, on the driver.
    */
  def pack(df: DataFrame, blockSize: Int = PdxLayout.DefaultBlockSize): Dataset[PdxBlockRow] = {
    require(blockSize > 0, s"blockSize must be positive, got $blockSize")
    val spark = df.sparkSession
    import spark.implicits._
    df.select(col("id").cast("long"), col("vec"))
      .as[(Long, Array[Float])]
      .mapPartitions { it =>
        it.grouped(blockSize).map { group =>
          val vecs = group.map(_._2).toIndexedSeq
          val ids = group.map(_._1).toIndexedSeq
          PdxBlockRow.from(PdxLayout.packOne(vecs, ids, vecs.head.length, withSuffixNorms = false))
        }
      }
  }

  /** Exact distributed KNN: per-partition PDX linear scan, global top-k.
    * Runs its one Spark job at once and returns the answer as a local
    * (id LONG, dist DOUBLE) DataFrame sorted ascending by (dist, id).
    * Cache `blocks` before its first query (see the object doc). A NaN or
    * infinite query value fails here on the driver, before any job.
    */
  def knnExact(blocks: Dataset[PdxBlockRow], query: Array[Float], k: Int): DataFrame =
    globalTopK(blocks, query, k, bond = false)

  /** Distributed PDX-BOND KNN: per-partition PDXearch with the exact
    * partial-distance pruner in distance-to-means order; global top-k.
    * Exact — equals `knnExact` up to float tie noise. Cache `blocks` before
    * its first query (see the object doc). Checks the query as `knnExact`
    * does.
    */
  def knnBond(blocks: Dataset[PdxBlockRow], query: Array[Float], k: Int): DataFrame =
    globalTopK(blocks, query, k, bond = true)

  private val KnnSchema = StructType(Seq(
    StructField("id", LongType, nullable = false), StructField("dist", DoubleType, nullable = false)))

  /** Checks `k` and the query on the driver, then runs one [[PartitionKnn]]
    * task per partition of `blocks.queryExecution.toRdd` (planned once per
    * Dataset, so over the cache when the blocks were cached before the first
    * query) in one `SparkContext.runJob`, which returns each partition's
    * k-list in its own slot, and merges the k-lists into one [[KnnHeap]] on
    * the driver. The task is a named class, not a lambda, because
    * `ClosureCleaner` parses the class that defines any lambda an action is
    * given; `RDD.collect`'s lambda is defined in `RDD` (see [[PartitionKnn]]).
    * The result is a local DataFrame, (id LONG, dist DOUBLE) sorted
    * ascending by (dist, id): collecting it runs no second job.
    */
  private def globalTopK(blocks: Dataset[PdxBlockRow], query: Array[Float], k: Int,
                         bond: Boolean): DataFrame = {
    require(k > 0, s"k must be positive, got $k")
    LinearScan.requireFiniteQuery(query)
    val rdd = blocks.queryExecution.toRdd
    val perPartition = rdd.sparkContext.runJob(rdd, new PartitionKnn(blocks.schema, query, k, bond))
    val heap = new KnnHeap(k)
    perPartition.foreach(_.foreach { case (id, dist) => heap.push(id, dist) })
    val rows = heap.sorted.map { case (id, dist) => Row(id, dist.toDouble) }
    blocks.sparkSession.createDataFrame(rows.asJava, KnnSchema)
  }

  /** Register the `pdx_block_knn(data, n, d, ids, query, k)` UDF: scans one
    * PDX block dimension-at-a-time and returns its local top-k, sorted by
    * (dist, id), as `array<struct<id: bigint, dist: double>>` (one
    * [[KnnHit]] each) — the SQL-facing dimension-scan path. A NaN or
    * infinite query value fails the query, naming its position.
    */
  def registerUdf(spark: SparkSession): Unit = {
    spark.udf.register(
      "pdx_block_knn",
      (data: Seq[Float], n: Int, d: Int, ids: Seq[Long], query: Seq[Float], k: Int) => {
        val q = query.toArray
        LinearScan.requireFiniteQuery(q)
        // A linear scan never reads the block means, so zeros stand in.
        val block = PdxBlock(ids.toArray, n, d, data.toArray, new Array[Float](d),
                             Array.emptyFloatArray)
        LinearScan.pdxKnn(Iterator.single(block), q, k).sorted
          .map { case (id, dist) => KnnHit(id, dist.toDouble) }
      }
    )
  }
}
